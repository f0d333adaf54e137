//===- tests/ChunkOracle.h - Chunked replay of a whole run ------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// Every sink consumes the reference stream through accessBatch, in batches
// whose boundaries fall wherever the bus happens to flush: when its 256
// records fill, at HeapCheck's drain points, at the end of the run. No
// result may depend on where those boundaries fall. This oracle captures a
// run's exact stream through runExperiment's Observer, replays it into
// fresh sinks — a CacheBank with set profiles on, a PageSim with telemetry
// attached, a BinaryTraceWriter — in chunks of 1, 193 and 256 records, and
// requires every chunking to reproduce the run's own cache statistics,
// per-set miss profiles, fault curve, page-run histogram and trace bytes.
//
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_TESTS_CHUNKORACLE_H
#define ALLOCSIM_TESTS_CHUNKORACLE_H

#include "core/Lab.h"
#include "trace/RefTrace.h"
#include "vm/PageSim.h"

#include <gtest/gtest.h>

#include <algorithm>
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

  std::vector<MemAccess> Stream;
  std::ostringstream Trace{std::ios::binary};

private:
  BinaryTraceWriter Writer{Trace};
};

/// What fresh sinks compute from one chunked replay of a stream.
struct ChunkedReplay {
  std::vector<CacheStats> Caches;
  std::vector<std::vector<uint64_t>> SetMisses;
  /// Each cache's per-set misses folded into a histogram, one record per
  /// set, exactly as runExperiment folds cache.<I>.set_misses.
  std::vector<HistogramSnapshot> SetMissHists;
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
  Telemetry Telem(TelemetryLevel::Full);
  PageSim Paging(Config.PageBytes);
  Paging.attachTelemetry(&Telem);
  std::ostringstream Trace(std::ios::binary);
  BinaryTraceWriter Writer(Trace);
  AccessSink *const Sinks[] = {&Caches, &Paging, &Writer};
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

/// Runs \p Config at full telemetry with a RunTap on its bus, then requires
/// replays of the tapped stream in chunks of 1, 193 and 256 to agree with
/// each other and with the run: cache statistics, per-set miss profiles
/// (raw across chunkings, folded against the run's telemetry), fault rates,
/// distinct pages, the vm.page_run_len histogram and the trace bytes.
/// Returns the run's result.
inline RunResult expectChunkingInvariant(ExperimentConfig Config,
                                         const std::string &Label) {
  SCOPED_TRACE(Label);
  Config.Telemetry = TelemetryLevel::Full;
  RunTap Tap;
  RunResult Run = runExperiment(Config, nullptr, &Tap);
  EXPECT_EQ(Tap.Stream.size(), Run.TotalRefs);
  EXPECT_FALSE(Tap.Stream.empty());

  std::vector<std::vector<uint64_t>> FirstSetMisses;
  for (size_t Chunk : {size_t(1), size_t(193), AccessBatch::MaxCapacity}) {
    SCOPED_TRACE("chunks of " + std::to_string(Chunk));
    ChunkedReplay Replay = replayInChunks(Config, Tap.Stream, Chunk);
    if (FirstSetMisses.empty())
      FirstSetMisses = Replay.SetMisses;
    EXPECT_EQ(Replay.SetMisses, FirstSetMisses);

    EXPECT_EQ(Replay.Caches.size(), Run.Caches.size());
    for (size_t I = 0; I != std::min(Replay.Caches.size(), Run.Caches.size());
         ++I) {
      SCOPED_TRACE(Run.Caches[I].Config.describe());
      expectCacheStatsEqual(Replay.Caches[I], Run.Caches[I].Stats);
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
  return Run;
}

} // namespace allocsim

#endif // ALLOCSIM_TESTS_CHUNKORACLE_H
