//===- tests/lab_test.cpp - Experiment orchestration tests ----------------===//

#include "core/Lab.h"
#include "core/MatrixRunner.h"

#include <gtest/gtest.h>

using namespace allocsim;

namespace {

ExperimentConfig smallConfig(WorkloadId Workload, AllocatorKind Allocator) {
  ExperimentConfig Config;
  Config.Workload = Workload;
  Config.Allocator = Allocator;
  Config.Engine.Scale = 64;
  Config.Caches = {CacheConfig{16 * 1024, 32, 1},
                   CacheConfig{64 * 1024, 32, 1}};
  return Config;
}

} // namespace

TEST(LabTest, RunsEveryAllocatorOnEveryWorkload) {
  for (WorkloadId Workload : {WorkloadId::Espresso, WorkloadId::Gawk,
                              WorkloadId::Make, WorkloadId::GsSmall}) {
    for (AllocatorKind Allocator : PaperAllocators) {
      RunResult Result = runExperiment(smallConfig(Workload, Allocator));
      EXPECT_GT(Result.TotalRefs, 0u);
      EXPECT_GT(Result.AppInstructions, 0u);
      EXPECT_GT(Result.AllocInstructions, 0u);
      EXPECT_GT(Result.HeapBytes, 0u);
      ASSERT_EQ(Result.Caches.size(), 2u);
      for (const CacheResult &Cache : Result.Caches) {
        EXPECT_GT(Cache.Stats.Accesses, 0u);
        EXPECT_GE(Cache.Stats.missRate(), 0.0);
        EXPECT_LE(Cache.Stats.missRate(), 1.0);
      }
      EXPECT_GT(Result.allocInstrFraction(), 0.0);
      EXPECT_LT(Result.allocInstrFraction(), 0.9);
    }
  }
}

TEST(LabTest, ReferenceCountsAreConsistent) {
  RunResult Result =
      runExperiment(smallConfig(WorkloadId::Espresso, AllocatorKind::Bsd));
  EXPECT_EQ(Result.TotalRefs,
            Result.AppRefs + Result.AllocRefs + Result.TagRefs);
  EXPECT_EQ(Result.TagRefs, 0u);
  // Every reference reached the cache.
  EXPECT_GE(Result.Caches[0].Stats.Accesses, Result.TotalRefs);
}

TEST(LabTest, DeterministicAcrossRuns) {
  ExperimentConfig Config =
      smallConfig(WorkloadId::Gawk, AllocatorKind::QuickFit);
  RunResult A = runExperiment(Config);
  RunResult B = runExperiment(Config);
  EXPECT_EQ(A.TotalRefs, B.TotalRefs);
  EXPECT_EQ(A.AppInstructions, B.AppInstructions);
  EXPECT_EQ(A.AllocInstructions, B.AllocInstructions);
  EXPECT_EQ(A.Caches[0].Stats.Misses, B.Caches[0].Stats.Misses);
  EXPECT_EQ(A.HeapBytes, B.HeapBytes);
}

TEST(LabTest, IdenticalEventStreamAcrossAllocators) {
  // The methodological control: every allocator must see the same
  // application behaviour — identical app refs and app instructions.
  MatrixSpec Spec;
  Spec.Workloads = {WorkloadId::Make};
  Spec.Allocators.assign(PaperAllocators, PaperAllocators + 5);
  Spec.Base = smallConfig(WorkloadId::Make, AllocatorKind::Bsd);
  Spec.Caches = Spec.Base.Caches;
  ResultStore Store = runMatrix(Spec);
  ASSERT_EQ(Store.failedCount(), 0u);
  const RunResult &First = Store.at(0, 0).Result;
  for (size_t A = 0; A != Store.size(); ++A) {
    const RunResult &Result = Store.at(0, A).Result;
    EXPECT_EQ(Result.AppRefs, First.AppRefs);
    EXPECT_EQ(Result.AppInstructions, First.AppInstructions);
    EXPECT_EQ(Result.Alloc.MallocCalls, First.Alloc.MallocCalls);
    EXPECT_EQ(Result.Alloc.BytesRequested, First.Alloc.BytesRequested);
  }
}

TEST(LabTest, PagingCurveIsMonotone) {
  ExperimentConfig Config =
      smallConfig(WorkloadId::GsSmall, AllocatorKind::FirstFit);
  Config.Caches.clear();
  Config.PagingMemoryKb = {64, 128, 256, 512, 1024, 2048};
  RunResult Result = runExperiment(Config);
  ASSERT_EQ(Result.Paging.size(), 6u);
  EXPECT_GT(Result.DistinctPages, 0u);
  for (size_t I = 1; I < Result.Paging.size(); ++I)
    EXPECT_LE(Result.Paging[I].FaultsPerRef,
              Result.Paging[I - 1].FaultsPerRef + 1e-12);
  EXPECT_GT(Result.Paging[0].FaultsPerRef, 0.0);
}

TEST(LabTest, TimeEstimateFollowsFormula) {
  RunResult Result =
      runExperiment(smallConfig(WorkloadId::Make, AllocatorKind::GnuGxx));
  const CacheResult &Cache = Result.Caches[0];
  double Expected =
      double(Result.totalInstructions()) +
      Cache.Stats.missRate() * 25.0 * double(Result.TotalRefs);
  EXPECT_NEAR(Cache.Time.totalCycles(), Expected, Expected * 1e-9);
  EXPECT_NEAR(Result.estimatedSeconds(0), Expected / 25e6, 1e-6);
}

TEST(LabTest, BoundaryTagEmulationProducesTagTraffic) {
  ExperimentConfig Config =
      smallConfig(WorkloadId::Espresso, AllocatorKind::GnuLocal);
  Config.EmulateBoundaryTags = true;
  RunResult Tagged = runExperiment(Config);
  Config.EmulateBoundaryTags = false;
  RunResult Plain = runExperiment(Config);

  EXPECT_GT(Tagged.TagRefs, 0u);
  EXPECT_EQ(Plain.TagRefs, 0u);
  // Tags occupy space: the tagged heap is at least as large.
  EXPECT_GE(Tagged.HeapBytes, Plain.HeapBytes);
}

TEST(LabTest, CustomAllocatorRuns) {
  ExperimentConfig Config =
      smallConfig(WorkloadId::Espresso, AllocatorKind::Custom);
  RunResult Result = runExperiment(Config);
  EXPECT_GT(Result.TotalRefs, 0u);
  // The synthesized allocator should be at least as instruction-lean as
  // the general-purpose GNU G++ on its own profile.
  Config.Allocator = AllocatorKind::GnuGxx;
  RunResult GnuGxx = runExperiment(Config);
  EXPECT_LT(Result.AllocInstructions, GnuGxx.AllocInstructions);
}

TEST(LabTest, SetAssociativeExtensionWorks) {
  ExperimentConfig Config =
      smallConfig(WorkloadId::Gawk, AllocatorKind::Bsd);
  Config.Caches = {CacheConfig{16 * 1024, 32, 1},
                   CacheConfig{16 * 1024, 32, 4}};
  RunResult Result = runExperiment(Config);
  // 4-way of equal size should not miss more on this workload.
  EXPECT_LE(Result.Caches[1].Stats.missRate(),
            Result.Caches[0].Stats.missRate() * 1.05);
}
