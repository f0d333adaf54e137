//===- tests/ChunkOracle.h - Chunked replay of a whole run ------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// Every sink consumes the reference stream through accessBatch, in batches
// whose boundaries fall wherever the bus happens to flush: when its 256
// records fill, at HeapCheck's drain points, at the end of the run. No
// result may depend on where those boundaries fall, nor on whether a sweep
// arrives as one span record or as its single references. This oracle
// captures a run's exact record stream through runExperiment's Observer,
// expands it word by word, and replays both the span stream and the
// expansion into fresh sinks — the ladder and a 512-set LRU stack kernel
// (both CacheSweep), a CacheBank with set profiles on, a PageSim with
// telemetry attached, a BinaryTraceWriter — in chunks of 1, 193 and 256
// records. Every replay must reproduce the run's own cache statistics,
// per-set miss profiles, fault curve, page-run histogram and trace bytes;
// both one-pass kernels must agree across replays and with a CacheBank of
// their family.
//
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_TESTS_CHUNKORACLE_H
#define ALLOCSIM_TESTS_CHUNKORACLE_H

#include "cache/StackSim.h"
#include "core/Lab.h"
#include "trace/RefTrace.h"
#include "vm/PageSim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace allocsim {

/// Observer for a run's bus: keeps the exact stream and the bytes a trace
/// writer attached to that bus writes.
class RunTap final : public AccessSink {
public:
  void accessBatch(const MemAccess *Batch, size_t Count) override {
    Stream.insert(Stream.end(), Batch, Batch + Count);
    Writer.accessBatch(Batch, Count);
  }
  bool takesSpans() const override { return true; }

  std::vector<MemAccess> Stream;
  std::ostringstream Trace{std::ios::binary};

private:
  BinaryTraceWriter Writer{Trace};
};

/// The word-by-word expansion of \p Stream: one record per reference.
inline std::vector<MemAccess>
expandStream(const std::vector<MemAccess> &Stream) {
  CollectingSink Words;
  Words.accessBatch(Stream.data(), Stream.size());
  return Words.records();
}

/// Statistics and per-set miss profiles of every member of a cache family.
struct FamilyResult {
  std::vector<CacheStats> Stats;
  std::vector<std::vector<uint64_t>> SetMisses;
};

inline FamilyResult familyResult(const CacheSweep &Sweep) {
  FamilyResult Out;
  for (size_t I = 0; I != Sweep.size(); ++I) {
    Out.Stats.push_back(Sweep.statsFor(I));
    Out.SetMisses.push_back(Sweep.setMissProfile(I));
  }
  return Out;
}

/// What fresh sinks compute from one chunked replay of a stream.
struct ChunkedReplay {
  /// The CacheBank over the run's caches.
  std::vector<CacheStats> Caches;
  std::vector<std::vector<uint64_t>> SetMisses;
  /// Each cache's per-set misses folded into a histogram, one record per
  /// set, exactly as runExperiment folds cache.<I>.set_misses.
  std::vector<HistogramSnapshot> SetMissHists;
  /// CacheSweeps over the run's caches (the ladder, for the paper's
  /// sweep) and over assocCacheSweep (the stack kernel).
  FamilyResult Sweep;
  FamilyResult Assoc;
  std::vector<double> FaultsPerRef;
  uint64_t DistinctPages = 0;
  HistogramSnapshot PageRunLen;
  std::string Trace;
};

/// Replays \p Stream in chunks of \p Chunk records into sinks built for
/// \p Config's caches and paging sizes.
inline ChunkedReplay replayInChunks(const ExperimentConfig &Config,
                                    const std::vector<MemAccess> &Stream,
                                    size_t Chunk) {
  CacheBank Caches;
  for (const CacheConfig &Cache : Config.Caches)
    Caches.cache(Caches.addCache(Cache)).enableSetProfile();
  CacheSweep Sweep(Config.Caches), Assoc(assocCacheSweep());
  Sweep.enableSetProfile();
  Assoc.enableSetProfile();
  Telemetry Telem(TelemetryLevel::Full);
  PageSim Paging(Config.PageBytes);
  Paging.attachTelemetry(&Telem);
  std::ostringstream Trace(std::ios::binary);
  BinaryTraceWriter Writer(Trace);
  AccessSink *const Sinks[] = {&Caches, &Sweep, &Assoc, &Paging, &Writer};
  for (AccessSink *Sink : Sinks)
    for (size_t Offset = 0; Offset < Stream.size(); Offset += Chunk)
      Sink->accessBatch(Stream.data() + Offset,
                        std::min(Chunk, Stream.size() - Offset));
  Paging.flushRunTelemetry();

  ChunkedReplay Out;
  for (size_t I = 0; I != Caches.size(); ++I) {
    const CacheSim &Cache = Caches.cache(I);
    Out.Caches.push_back(Cache.stats());
    Out.SetMisses.push_back(Cache.setMissProfile());
    TelemetryHistogram Hist;
    for (uint64_t Misses : Cache.setMissProfile())
      Hist.record(Misses);
    Out.SetMissHists.push_back(Hist.snapshot());
  }
  Out.Sweep = familyResult(Sweep);
  Out.Assoc = familyResult(Assoc);
  for (uint32_t MemoryKb : Config.PagingMemoryKb)
    Out.FaultsPerRef.push_back(Paging.faultRateForMemoryKb(MemoryKb));
  Out.DistinctPages = Paging.distinctPages();
  Out.PageRunLen = Telem.snapshot().histogram("vm.page_run_len");
  Out.Trace = Trace.str();
  return Out;
}

/// Exact equality of two cache statistics, total and by source.
inline void expectCacheStatsEqual(const CacheStats &Got,
                                  const CacheStats &Want) {
  EXPECT_EQ(Got.Accesses, Want.Accesses);
  EXPECT_EQ(Got.Misses, Want.Misses);
  EXPECT_EQ(Got.AccessesBySource, Want.AccessesBySource);
  EXPECT_EQ(Got.MissesBySource, Want.MissesBySource);
}

/// Exact equality of two families' statistics and per-set miss profiles.
inline void expectFamilyEqual(const FamilyResult &Got,
                              const FamilyResult &Want) {
  ASSERT_EQ(Got.Stats.size(), Want.Stats.size());
  for (size_t I = 0; I != Got.Stats.size(); ++I) {
    SCOPED_TRACE("member " + std::to_string(I));
    expectCacheStatsEqual(Got.Stats[I], Want.Stats[I]);
  }
  EXPECT_EQ(Got.SetMisses, Want.SetMisses);
}

/// Runs \p Config at full telemetry with a RunTap on its bus, checks that
/// the stream carries spans whose words add up to the run's references,
/// then requires replays of the span stream and of its word-by-word
/// expansion, in chunks of 1, 193 and 256, to agree with each other and
/// with the run: cache statistics (CacheBank, and the CacheSweep over the
/// same caches), per-set miss profiles (raw across replays, folded against
/// the run's telemetry), the 512-set stack kernel's statistics and
/// profiles (also against a CacheBank of that family), fault rates,
/// distinct pages, the vm.page_run_len histogram and the trace bytes.
/// Returns the run's result.
inline RunResult expectChunkingInvariant(ExperimentConfig Config,
                                         const std::string &Label) {
  SCOPED_TRACE(Label);
  Config.Telemetry = TelemetryLevel::Full;
  RunTap Tap;
  RunResult Run = runExperiment(Config, nullptr, &Tap);
  uint64_t Words = 0;
  for (const MemAccess &Record : Tap.Stream)
    Words += Record.Words;
  EXPECT_EQ(Words, Run.TotalRefs);
  EXPECT_LT(Tap.Stream.size(), Run.TotalRefs) << "the run emitted no span";
  EXPECT_FALSE(Tap.Stream.empty());
  const std::vector<MemAccess> Expanded = expandStream(Tap.Stream);
  EXPECT_EQ(Expanded.size(), Run.TotalRefs);

  std::optional<ChunkedReplay> First;
  const std::vector<MemAccess> *const Streams[] = {&Tap.Stream, &Expanded};
  for (const std::vector<MemAccess> *Stream : Streams)
    for (size_t Chunk : {size_t(1), size_t(193), AccessBatch::MaxCapacity}) {
      SCOPED_TRACE(std::string(Stream == &Expanded ? "expanded" : "spans") +
                   " in chunks of " + std::to_string(Chunk));
      ChunkedReplay Replay = replayInChunks(Config, *Stream, Chunk);
      if (!First)
        First = Replay;
      EXPECT_EQ(Replay.SetMisses, First->SetMisses);
      expectFamilyEqual(Replay.Sweep, First->Sweep);
      expectFamilyEqual(Replay.Assoc, First->Assoc);

      EXPECT_EQ(Replay.Caches.size(), Run.Caches.size());
      for (size_t I = 0;
           I != std::min(Replay.Caches.size(), Run.Caches.size()); ++I) {
        SCOPED_TRACE(Run.Caches[I].Config.describe());
        expectCacheStatsEqual(Replay.Caches[I], Run.Caches[I].Stats);
        expectCacheStatsEqual(Replay.Sweep.Stats[I], Run.Caches[I].Stats);
        EXPECT_EQ(Replay.Sweep.SetMisses[I], Replay.SetMisses[I]);
        EXPECT_EQ(Replay.SetMissHists[I],
                  Run.Telemetry.histogram("cache." + std::to_string(I) +
                                          ".set_misses"));
      }

      if (!Config.PagingMemoryKb.empty()) {
        std::vector<double> RunFaults;
        for (const PagingPoint &Point : Run.Paging)
          RunFaults.push_back(Point.FaultsPerRef);
        EXPECT_EQ(Replay.FaultsPerRef, RunFaults);
        EXPECT_EQ(Replay.DistinctPages, Run.DistinctPages);
        EXPECT_EQ(Replay.PageRunLen,
                  Run.Telemetry.histogram("vm.page_run_len"));
      }
      EXPECT_EQ(Replay.Trace, Tap.Trace.str());
    }

  // The stack kernel's family against per-config simulation, once.
  CacheBank AssocBank;
  for (const CacheConfig &Cache : assocCacheSweep())
    AssocBank.cache(AssocBank.addCache(Cache)).enableSetProfile();
  AssocBank.accessBatch(Expanded.data(), Expanded.size());
  for (size_t I = 0; I != AssocBank.size(); ++I) {
    SCOPED_TRACE(AssocBank.cache(I).config().describe());
    expectCacheStatsEqual(First->Assoc.Stats[I], AssocBank.cache(I).stats());
    EXPECT_EQ(First->Assoc.SetMisses[I], AssocBank.cache(I).setMissProfile());
  }
  return Run;
}

} // namespace allocsim

#endif // ALLOCSIM_TESTS_CHUNKORACLE_H
