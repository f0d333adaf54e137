//===- tests/pipeline_equivalence_test.cpp - Chunking never shows ---------===//
//
// Batching is a pure throughput device: the paper's methodology depends on
// bit-identical miss and fault counts across allocators, so where the bus
// cuts the stream into batches must change nothing but wall-clock time.
// Each test here runs an experiment once, captures its exact record
// stream, and replays it — as spans and expanded word by word — into fresh
// sinks in chunks of 1, 193 and 256 records (tests/ChunkOracle.h):
// per-cache per-source miss counts, per-set miss profiles, page-fault
// curves, the page-run histogram and the serialized trace bytes must all
// come out identical, and equal to the run's own.
//
//===----------------------------------------------------------------------===//

#include "ChunkOracle.h"

#include "core/MatrixRunner.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace allocsim;

namespace {

/// The oracle holds a cell's whole stream and trace bytes in memory and
/// replays the stream three times, once record by record, so these cells
/// keep it near two million records: the scale is picked per workload and
/// not clamped to the paper's live heap.
ExperimentConfig paperConfig(WorkloadId Workload, AllocatorKind Allocator) {
  ExperimentConfig Config;
  Config.Workload = Workload;
  Config.Allocator = Allocator;
  Config.Engine.Scale = Workload == WorkloadId::GsSmall ? 32 : 256;
  Config.Engine.ClampScaleForLiveHeap = false;
  Config.Engine.Seed = 1592932958;
  Config.Caches = paperCacheSweep();
  Config.PagingMemoryKb = {256, 1024};
  return Config;
}

} // namespace

TEST(PipelineEquivalenceTest, AllPaperAllocatorsOnEspresso) {
  for (AllocatorKind Kind : PaperAllocators)
    expectChunkingInvariant(paperConfig(WorkloadId::Espresso, Kind),
                            std::string("espresso/") +
                                allocatorKindName(Kind));
}

TEST(PipelineEquivalenceTest, AllPaperAllocatorsOnGsSmall) {
  // The Fig. 6-8 subject: the full multi-cache sweep on the ghostscript
  // workload, where the batch loops run hottest.
  for (AllocatorKind Kind : PaperAllocators)
    expectChunkingInvariant(paperConfig(WorkloadId::GsSmall, Kind),
                            std::string("gs-small/") +
                                allocatorKindName(Kind));
}

TEST(PipelineEquivalenceTest, BoundaryTagEmulationIdentical) {
  // Table 6: the tag-emulation reference stream (third access source) must
  // replay identically too.
  ExperimentConfig Config =
      paperConfig(WorkloadId::Espresso, AllocatorKind::GnuLocal);
  Config.EmulateBoundaryTags = true;
  expectChunkingInvariant(Config, "espresso/GnuLocal+tags");
}

TEST(PipelineEquivalenceTest, HeapCheckFullIdentical) {
  // With --check=full the ShadowHeap drains the bus before every heap state
  // transition, so batches end at different points than in an unchecked
  // run. The stream and every sink result must not move: the checked run
  // replays identically, and its measurements equal the unchecked run's.
  for (AllocatorKind Kind :
       {AllocatorKind::FirstFit, AllocatorKind::Bsd, AllocatorKind::QuickFit}) {
    ExperimentConfig Config = paperConfig(WorkloadId::Espresso, Kind);
    RunResult Plain = runExperiment(Config);
    Config.Check.Level = CheckLevel::Full;
    Config.Check.IntervalOps = 64;
    Config.Check.AbortOnViolation = false;
    RunResult Checked = expectChunkingInvariant(
        Config, std::string("check-full/") + allocatorKindName(Kind));
    EXPECT_EQ(Checked.CheckViolations, 0u);
    EXPECT_GT(Checked.CheckWalks, 0u);
    EXPECT_EQ(Checked.TotalRefs, Plain.TotalRefs);
    ASSERT_EQ(Checked.Caches.size(), Plain.Caches.size());
    for (size_t I = 0; I != Plain.Caches.size(); ++I)
      expectCacheStatsEqual(Checked.Caches[I].Stats, Plain.Caches[I].Stats);
    ASSERT_EQ(Checked.Paging.size(), Plain.Paging.size());
    for (size_t I = 0; I != Plain.Paging.size(); ++I)
      EXPECT_EQ(Checked.Paging[I].FaultsPerRef, Plain.Paging[I].FaultsPerRef);
  }
}

TEST(PipelineEquivalenceTest, GoldenMatrixSerializesIdentically) {
  // The golden paper_small matrix (the allocsim-matrix-v1 snapshot slice):
  // a store whose cache and paging results come from 193-record replays of
  // each cell's stream must serialize byte-identically to the plain store.
  MatrixSpec Spec;
  Spec.Workloads = {WorkloadId::Espresso, WorkloadId::GsSmall};
  Spec.Allocators = {AllocatorKind::FirstFit, AllocatorKind::QuickFit,
                     AllocatorKind::Bsd};
  Spec.Caches = {CacheConfig{16 * 1024, 32, 1}};
  Spec.PagingMemoryKb = {256};
  Spec.Base.Engine.Scale = 128;
  Spec.Base.Engine.Seed = 1592932958;

  MatrixOptions Options;
  Options.Jobs = 2;
  ResultStore PlainStore = runMatrix(Spec, Options);
  ASSERT_EQ(PlainStore.failedCount(), 0u);

  Options.CellRunner = [](const ExperimentConfig &Config,
                          TelemetrySnapshot &) {
    RunTap Tap;
    RunResult Result = runExperiment(Config, nullptr, &Tap);
    ChunkedReplay Replay = replayInChunks(Config, Tap.Stream, 193);
    for (size_t I = 0; I != Result.Caches.size(); ++I) {
      Result.Caches[I].Stats = Replay.Caches[I];
      Result.Caches[I].Time.MissRate = Replay.Caches[I].missRate();
    }
    for (size_t I = 0; I != Result.Paging.size(); ++I)
      Result.Paging[I].FaultsPerRef = Replay.FaultsPerRef[I];
    Result.DistinctPages = Replay.DistinctPages;
    return Result;
  };
  ResultStore ReplayedStore = runMatrix(Spec, Options);
  ASSERT_EQ(ReplayedStore.failedCount(), 0u);

  std::ostringstream Plain, Replayed;
  PlainStore.writeGoldenJson(Plain);
  ReplayedStore.writeGoldenJson(Replayed);
  EXPECT_EQ(Plain.str(), Replayed.str());
}

TEST(PipelineEquivalenceTest, BinaryTraceBytesIdentical) {
  // The trace writer is a sink like any other: the bytes written by a
  // writer on the run's bus equal those of every chunked replay (the
  // oracle checks that), and they decode back to the exact stream, one
  // record per reference.
  ExperimentConfig Config;
  Config.Workload = WorkloadId::Espresso;
  Config.Allocator = AllocatorKind::FirstFit;
  Config.Engine.Scale = 512;
  expectChunkingInvariant(Config, "trace only");

  RunTap Tap;
  runExperiment(Config, nullptr, &Tap);
  const std::vector<MemAccess> Words = expandStream(Tap.Stream);
  std::istringstream In(Tap.Trace.str(), std::ios::binary);
  BinaryTraceReader Reader(In);
  CollectingSink Decoded;
  EXPECT_EQ(replayTrace(Reader, Decoded), Words.size());
  ASSERT_EQ(Decoded.records().size(), Words.size());
  for (size_t I = 0; I != Words.size(); ++I) {
    const MemAccess &Got = Decoded.records()[I];
    const MemAccess &Want = Words[I];
    ASSERT_TRUE(Got.Address == Want.Address && Got.Size == Want.Size &&
                Got.Kind == Want.Kind && Got.Source == Want.Source)
        << "record " << I;
  }
}

TEST(PipelineEquivalenceTest, PageSimRunSkipMatchesScalar) {
  // Direct unit-level check of PageSim's same-page run skip, including
  // page-straddling records that must take the per-page split: one record
  // per call and 100-record chunks must agree.
  PageSim Single(4096), Chunked(4096);
  std::vector<MemAccess> Stream;
  Addr Base = 0x1000'0000;
  for (uint32_t I = 0; I != 4000; ++I) {
    // Long same-page runs with periodic page changes and straddles.
    Addr A = Base + (I % 7 == 0 ? (I * 4096u) % (64 * 4096u) : (I * 4) % 4096);
    uint8_t Size = (I % 97 == 0) ? 16 : 4;
    if (I % 511 == 0)
      A = Base + 4094; // straddles into the next page
    Stream.push_back(MemAccess{A, Size, AccessKind::Read,
                               AccessSource::Application});
  }
  for (const MemAccess &Access : Stream)
    Single.access(Access);
  for (size_t I = 0; I < Stream.size(); I += 100)
    Chunked.accessBatch(Stream.data() + I,
                        std::min<size_t>(100, Stream.size() - I));

  EXPECT_EQ(Single.references(), Chunked.references());
  EXPECT_EQ(Single.distinctPages(), Chunked.distinctPages());
  EXPECT_EQ(Single.zeroDistanceHits(), Chunked.zeroDistanceHits());
  for (uint64_t Pages : {0u, 1u, 2u, 8u, 64u, 1024u})
    EXPECT_EQ(Single.faults(Pages), Chunked.faults(Pages)) << Pages;
}
