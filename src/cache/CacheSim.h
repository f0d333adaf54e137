//===- cache/CacheSim.h - Data-cache simulators -----------------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Data-cache simulators in the mold of TYCHO (Hill), which the paper
/// modified for execution-driven simulation. The paper's configuration is a
/// direct-mapped cache with 32-byte blocks; we additionally provide
/// set-associative LRU caches as an extension, and a CacheBank that
/// simulates many configurations from one reference stream in a single pass
/// (how the paper produced its miss-rate-vs-cache-size curves).
///
/// These simulators are the oracle the one-pass engines (StackSim.h) are
/// tested against, so they stay word by word: a span record is expanded
/// (expandSpans) into its single references before the probe loop sees it.
///
/// Misses are counted for both reads and writes (write-allocate); only the
/// data stream is modeled — the paper assumes a 0% instruction-cache miss
/// rate. Statistics are split by access source so that allocator-induced
/// and tag-induced misses can be attributed (Table 6).
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_CACHE_CACHESIM_H
#define ALLOCSIM_CACHE_CACHESIM_H

#include "mem/AccessBatch.h"
#include "mem/AccessSink.h"

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace allocsim {

/// Geometry of one cache.
struct CacheConfig {
  /// Total capacity in bytes; must be a power of two.
  uint32_t SizeBytes = 16 * 1024;
  /// Block (line) size in bytes; must be a power of two. The paper uses 32.
  uint32_t BlockBytes = 32;
  /// Associativity; 1 = direct-mapped (the paper's configuration).
  uint32_t Assoc = 1;

  /// Capacity in blocks; 0 for the degenerate BlockBytes == 0 geometry
  /// (which valid() rejects) rather than dividing by zero.
  uint32_t numBlocks() const {
    return BlockBytes == 0 ? 0 : SizeBytes / BlockBytes;
  }
  /// Number of sets; 0 for degenerate geometries (Assoc == 0 or
  /// BlockBytes == 0) rather than dividing by zero.
  uint32_t numSets() const { return Assoc == 0 ? 0 : numBlocks() / Assoc; }

  /// True if sizes are powers of two and the geometry is consistent.
  bool valid() const;

  /// E.g. "64K direct-mapped, 32B blocks"; sub-1K capacities print in
  /// bytes ("512B 16-way, 32B blocks"). Must stay total: it is called on
  /// configurations that already failed valid() to build the fatal-error
  /// message.
  std::string describe() const;

  bool operator==(const CacheConfig &Other) const = default;
};

/// Hit/miss counters, split by access source.
struct CacheStats {
  uint64_t Accesses = 0;
  uint64_t Misses = 0;
  std::array<uint64_t, NumAccessSources> AccessesBySource{};
  std::array<uint64_t, NumAccessSources> MissesBySource{};

  double missRate() const {
    return Accesses == 0 ? 0.0
                         : static_cast<double>(Misses) /
                               static_cast<double>(Accesses);
  }

  uint64_t accessesFrom(AccessSource Source) const {
    return AccessesBySource[static_cast<unsigned>(Source)];
  }
  uint64_t missesFrom(AccessSource Source) const {
    return MissesBySource[static_cast<unsigned>(Source)];
  }
};

/// Common interface: a cache is an AccessSink with stats.
class CacheSim : public AccessSink {
public:
  explicit CacheSim(const CacheConfig &Config);

  const CacheConfig &config() const { return Config; }
  const CacheStats &stats() const { return Stats; }

  /// Empties the cache and zeroes statistics.
  virtual void reset() = 0;

  /// Enables the per-set miss profile (telemetry full level): misses are
  /// additionally counted per cache set, exposing the conflict structure
  /// behind the aggregate miss rate. Costs one counter array of numSets()
  /// entries; disabled (empty, zero cost on the probe paths) by default.
  void enableSetProfile() { SetMisses.assign(Config.numSets(), 0); }

  /// Per-set miss counts; empty unless enableSetProfile was called.
  const std::vector<uint64_t> &setMissProfile() const { return SetMisses; }

  /// Expands spans (expandSpans) and runs accessWords over the result.
  void accessBatch(const MemAccess *Batch, size_t Count) final;
  bool takesSpans() const final { return true; }

protected:
  /// CacheBank expands a batch once and hands the words to every cache.
  friend class CacheBank;

  /// The probe loop over single references; never sees a span.
  virtual void accessWords(const MemAccess *Words, size_t Count) = 0;

  /// Folds batch-local counters into Stats (shared by the subclasses'
  /// accessBatch loops, which accumulate into registers first).
  void foldBatchStats(uint64_t Accesses, uint64_t Misses,
                      const uint64_t AccessesBySource[NumAccessSources],
                      const uint64_t MissesBySource[NumAccessSources]);

  CacheConfig Config;
  CacheStats Stats;
  uint32_t BlockShift = 0;
  /// Per-set miss counts; empty when the set profile is disabled.
  std::vector<uint64_t> SetMisses;
};

/// Direct-mapped cache: one tag per set. This is the paper's model.
class DirectMappedCache final : public CacheSim {
public:
  explicit DirectMappedCache(const CacheConfig &Config);

  void reset() override;

private:
  /// One pass over the records with the block shift, index mask and tag
  /// array hoisted out of the loop. Tests hold it against a one-way
  /// SetAssocCache, an independent probe implementation.
  void accessWords(const MemAccess *Words, size_t Count) override;

  uint32_t IndexMask;
  /// Tag-plus-one per set; 0 means invalid.
  std::vector<uint64_t> Tags;
};

/// A cache simulated one block frame at a time. Its accessWords is the
/// frame loop SetAssocCache and VictimCache share: it calls probe() for
/// every block frame a record covers (an access straddling a block boundary
/// counts once per block touched, like a trace with one entry per word).
class ProbedCache : public CacheSim {
public:
  using CacheSim::CacheSim;

protected:
  void accessWords(const MemAccess *Words, size_t Count) final;

  /// Returns true on hit; updates replacement state.
  virtual bool probe(uint64_t BlockFrame) = 0;
};

/// N-way set-associative cache with true-LRU replacement (extension beyond
/// the paper's direct-mapped study).
class SetAssocCache final : public ProbedCache {
public:
  explicit SetAssocCache(const CacheConfig &Config);

  void reset() override;

private:
  bool probe(uint64_t BlockFrame) override;

  uint32_t NumSets;
  /// Ways for each set, most-recently-used first; 0 means invalid.
  std::vector<uint64_t> Ways;
};

/// Direct-mapped cache augmented with a small fully-associative victim
/// buffer (Jouppi 1990, cited in the paper's introduction as the era's
/// answer to rising miss costs). A block evicted from the main array drops
/// into the victim buffer; a main-array miss that hits the buffer swaps
/// the two blocks and counts as a hit. Extension beyond the paper's
/// direct-mapped study: it shows how much of each allocator's miss rate is
/// conflict structure a tiny buffer can absorb.
class VictimCache final : public ProbedCache {
public:
  /// \p Config must be direct-mapped; \p VictimEntries is the buffer size
  /// in blocks (Jouppi studied 1-15).
  VictimCache(const CacheConfig &Config, uint32_t VictimEntries);

  void reset() override;

  /// Main-array misses that the victim buffer absorbed.
  uint64_t victimHits() const { return VictimHits; }

private:
  /// A victim-buffer hit counts as a hit.
  bool probe(uint64_t BlockFrame) override;

  uint32_t IndexMask;
  /// Tag-plus-one per set; 0 means invalid.
  std::vector<uint64_t> Tags;
  /// Victim buffer, most-recently-inserted first; 0 means invalid.
  std::vector<uint64_t> Victims;
  uint64_t VictimHits = 0;
};

/// Simulates several cache configurations simultaneously from one stream.
class CacheBank final : public AccessSink {
public:
  /// Adds a cache (direct-mapped if Assoc==1, else set-associative) and
  /// returns its index. A configuration equal to one already in the bank
  /// is fatal: a duplicate would silently double-count in sweep output, so
  /// callers building banks from user input must dedupe (or diagnose)
  /// first.
  size_t addCache(const CacheConfig &Config);

  /// Delivers the whole batch to each cache in turn (rather than each
  /// access to every cache), so one cache's tag array stays hot for
  /// hundreds of probes before the next cache's is touched.
  void accessBatch(const MemAccess *Batch, size_t Count) override;
  bool takesSpans() const override { return true; }

  size_t size() const { return Caches.size(); }
  bool empty() const { return Caches.empty(); }
  const CacheSim &cache(size_t Index) const { return *Caches[Index]; }
  CacheSim &cache(size_t Index) { return *Caches[Index]; }

  void resetAll();

private:
  std::vector<std::unique_ptr<CacheSim>> Caches;
};

/// Builds the paper's sweep: direct-mapped caches of 16K, 32K, ..., 256K
/// with 32-byte blocks.
std::vector<CacheConfig> paperCacheSweep();

/// Builds the set-associative family the LRU stack kernel serves: 512 sets
/// of 32-byte blocks, 1-, 2-, 4-, 8- and 16-way (16K to 256K).
std::vector<CacheConfig> assocCacheSweep();

} // namespace allocsim

#endif // ALLOCSIM_CACHE_CACHESIM_H
