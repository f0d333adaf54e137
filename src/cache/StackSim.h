//===- cache/StackSim.h - One-pass inclusion cache engine -------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-pass multi-configuration cache simulation in the Mattson et al. 1970
/// lineage that TYCHO (and through it the paper's simulator) descends from,
/// extended by Hill & Smith's set-refinement argument ("Evaluating
/// Associativity in CPU Caches", IEEE TC 1989). A family of caches whose
/// contents nest — the contents of each member always a subset of the next
/// — is served by one pass that records, per block frame, the first
/// *level* of the nesting at which the frame hits. Member M misses exactly
/// the frames whose level is at least its threshold, so every member's
/// exact counts are read off one per-source level histogram afterwards.
///
/// Two kernels fill that histogram:
///
///  * Ladder — direct-mapped members with one block size and pairwise
///    distinct (power-of-two) set counts, in any order. The members sorted
///    by set count are the rungs. Frames sharing a set of the larger cache
///    also share a set of the smaller one, so a hit at a smaller rung
///    implies a hit at every larger rung; and a direct-mapped hit changes
///    no state. Probing from the smallest rung upward, writing the tag on
///    each miss and stopping at the first hit is therefore exact. The level
///    is the first-hit rung; the member at rung r misses levels > r. This
///    is the paper's own 16K..256K direct-mapped sweep.
///  * Stack — LRU members sharing block size and set count, varying only
///    associativity. An A-way set holds the A most recently used frames of
///    that set, so one LRU stack per set serves all; the level is the
///    0-based stack depth and the member with associativity A misses
///    levels >= A.
///
/// onePassKernelFor() picks the kernel; CacheSweep is the entry point that
/// falls back to per-config CacheBank simulation for any other family. In
/// every case the counts — total, by AccessSource and per set — are
/// bit-exactly what CacheBank produces, which
/// tests/cache_engine_equivalence_test.cpp enforces.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_CACHE_STACKSIM_H
#define ALLOCSIM_CACHE_STACKSIM_H

#include "cache/CacheSim.h"

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace allocsim {

/// The one-pass kernel able to simulate a cache family exactly.
enum class OnePassKernel : uint8_t {
  /// No one-pass kernel applies; simulate one CacheSim per member.
  None,
  /// Direct-mapped members, one block size, distinct set counts (this
  /// includes a single direct-mapped cache).
  Ladder,
  /// Two or more LRU members sharing block size and set count.
  Stack,
};

/// Chooses the kernel for \p Family: Ladder when every member is valid and
/// direct-mapped, all share one block size and no two share a set count;
/// else Stack when there are at least two members, all valid, distinct,
/// sharing block size and set count; else None (empty families, invalid or
/// duplicate members, mixed block sizes, mixed shapes such as {16K
/// direct-mapped, 64K 2-way}, and a lone set-associative cache, which has
/// nothing to share a pass with).
OnePassKernel onePassKernelFor(const std::vector<CacheConfig> &Family);

/// One-pass multi-configuration simulator over a family onePassKernelFor
/// accepts (see file comment). Attachable to the memory bus wherever a
/// CacheBank would go; statsFor(I) afterwards yields exactly what
/// CacheBank::cache(I).stats() would have been for member I in the order
/// given.
class StackSim final : public AccessSink {
public:
  /// \p Family must have a kernel; a family without one is fatal.
  explicit StackSim(const std::vector<CacheConfig> &Family);
  // The ladder's rungs point into the tag storage.
  StackSim(const StackSim &) = delete;
  StackSim &operator=(const StackSim &) = delete;

  OnePassKernel kernel() const { return Kernel; }

  /// Derives the member's hit/miss counters from the level histogram.
  CacheStats statsFor(size_t Index) const;

  /// The kernel loop, with its tag storage, masks and block shift hoisted
  /// out of the record loop.
  void accessBatch(const MemAccess *Batch, size_t Count) override;
  bool takesSpans() const override { return true; }

  /// Empties every set and zeroes all counters.
  void reset();

  /// Enables per-member per-set miss profiles (telemetry full level),
  /// mirroring CacheSim::enableSetProfile so the cache.<I>.set_misses
  /// telemetry does not depend on the engine. Costs one counter array per
  /// member; disabled (zero cost) by default.
  void enableSetProfile();

  /// Per-set miss counts of member \p Index; empty unless enableSetProfile
  /// was called.
  const std::vector<uint64_t> &setMissProfile(size_t Index) const {
    return SetMisses[Index];
  }

private:
  void ladderBatch(const MemAccess *Batch, size_t Count);
  void stackBatch(const MemAccess *Batch, size_t Count);

  /// One ladder rung: a direct-mapped tag array inside Tags.
  struct Rung {
    uint32_t *Tags;
    uint32_t Mask;
    /// Family index of the member this rung simulates.
    uint32_t Member;
  };

  std::vector<CacheConfig> Family;
  OnePassKernel Kernel = OnePassKernel::None;
  uint32_t BlockShift = 0;
  /// Histogram levels: the rung count (Ladder) or the largest member
  /// associativity (Stack). Level value Levels means the frame hit nowhere.
  uint32_t Levels = 0;
  /// Member I misses every frame whose level is >= Threshold[I].
  std::vector<uint32_t> Threshold;
  /// Ladder: the rungs, smallest set count first.
  std::vector<Rung> Rungs;
  /// Stack: the shared set mask.
  uint32_t SetMask = 0;
  /// Frame-plus-one encoded tags (0 = empty). Ladder: every rung's sets
  /// back to back. Stack: one MRU-first stack of Levels entries per set.
  /// Frames fit in 32 bits: addresses are 32-bit, an access runs at most
  /// 255 bytes past 4 GiB, and blocks are at least 4 bytes.
  std::vector<uint32_t> Tags;
  /// Frames delivered per source (every member's AccessesBySource).
  std::array<uint64_t, NumAccessSources> FramesBySource{};
  /// Level histogram of the frames above level 0 (level-0 frames miss no
  /// member): Levels rows of NumAccessSources counters, level L from
  /// source S at (L - 1) * NumAccessSources + S.
  std::vector<uint64_t> Hist;
  /// Per-member per-set miss counts; inner vectors empty unless the
  /// profile is enabled.
  std::vector<std::vector<uint64_t>> SetMisses;
  bool ProfileEnabled = false;
};

/// The cache layer of one run: simulates \p Family with StackSim when
/// onePassKernelFor names a kernel, else with one CacheSim per member in a
/// CacheBank (whose duplicate and geometry checks then apply). Results come
/// back per member in family order and are identical whichever engine ran.
class CacheSweep final : public AccessSink {
public:
  explicit CacheSweep(const std::vector<CacheConfig> &Family);

  OnePassKernel kernel() const {
    return OnePass ? OnePass->kernel() : OnePassKernel::None;
  }
  size_t size() const { return Family.size(); }
  bool empty() const { return Family.empty(); }
  const CacheConfig &config(size_t Index) const { return Family[Index]; }
  CacheStats statsFor(size_t Index) const;

  void accessBatch(const MemAccess *Batch, size_t Count) override;
  bool takesSpans() const override { return true; }

  /// Enables every member's per-set miss profile.
  void enableSetProfile();
  const std::vector<uint64_t> &setMissProfile(size_t Index) const;

private:
  std::vector<CacheConfig> Family;
  std::unique_ptr<StackSim> OnePass;
  CacheBank Bank;
};

} // namespace allocsim

#endif // ALLOCSIM_CACHE_STACKSIM_H
