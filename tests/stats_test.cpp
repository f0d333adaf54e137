//===- tests/stats_test.cpp - Telemetry registry unit tests ---------------===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// Property tests for the telemetry subsystem: the fixed bucket layout
// (power-of-two boundaries exact), saturating counters, and — the property
// MatrixRunner's determinism rests on — snapshot merge() being associative
// and commutative under random shuffles, so the merged matrix telemetry is
// identical at any --jobs count.
//
//===----------------------------------------------------------------------===//

#include "core/MatrixRunner.h"
#include "stats/Telemetry.h"
#include "support/Rng.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <vector>

using namespace allocsim;

namespace {

//===----------------------------------------------------------------------===//
// Bucket layout
//===----------------------------------------------------------------------===//

TEST(TelemetryBucketsTest, ExactRangeIsIdentity) {
  for (uint64_t Value = 0; Value <= TelemetryBuckets::MaxExactValue; ++Value) {
    unsigned Index = TelemetryBuckets::indexFor(Value);
    EXPECT_EQ(Index, Value);
    EXPECT_EQ(TelemetryBuckets::lowerBound(Index), Value);
  }
}

TEST(TelemetryBucketsTest, PowersOfTwoAreBucketBoundaries) {
  // Every power of two must be the smallest value of its bucket: 2^k for
  // k <= 6 is an exact bucket; 2^k for k >= 7 starts a fresh log bucket
  // (so 2^k - 1 lands strictly below it).
  for (unsigned K = 0; K != 64; ++K) {
    uint64_t Pow = uint64_t(1) << K;
    unsigned Index = TelemetryBuckets::indexFor(Pow);
    if (Pow > TelemetryBuckets::MaxExactValue + 1) {
      EXPECT_EQ(TelemetryBuckets::lowerBound(Index), Pow) << "2^" << K;
    }
    EXPECT_NE(Index, TelemetryBuckets::indexFor(Pow - 1)) << "2^" << K;
  }
}

TEST(TelemetryBucketsTest, IndexIsMonotoneAndInRange) {
  std::vector<uint64_t> Probes;
  for (uint64_t Value = 0; Value <= 300; ++Value)
    Probes.push_back(Value);
  for (unsigned K = 6; K != 64; ++K) {
    Probes.push_back((uint64_t(1) << K) - 1);
    Probes.push_back(uint64_t(1) << K);
    Probes.push_back((uint64_t(1) << K) + 1);
  }
  Probes.push_back(UINT64_MAX);
  std::sort(Probes.begin(), Probes.end());
  unsigned Prev = 0;
  for (uint64_t Value : Probes) {
    unsigned Index = TelemetryBuckets::indexFor(Value);
    ASSERT_LT(Index, TelemetryBuckets::NumBuckets) << Value;
    EXPECT_GE(Index, Prev) << Value;
    EXPECT_LE(TelemetryBuckets::lowerBound(Index), Value) << Value;
    Prev = Index;
  }
  EXPECT_EQ(TelemetryBuckets::indexFor(UINT64_MAX),
            TelemetryBuckets::NumBuckets - 1);
}

TEST(TelemetryBucketsTest, LowerBoundRoundTrips) {
  for (unsigned Index = 0; Index != TelemetryBuckets::NumBuckets; ++Index)
    EXPECT_EQ(TelemetryBuckets::indexFor(TelemetryBuckets::lowerBound(Index)),
              Index);
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

TEST(TelemetryCounterTest, SaturatesInsteadOfWrapping) {
  TelemetryCounter Counter;
  Counter.add(UINT64_MAX - 1);
  EXPECT_EQ(Counter.value(), UINT64_MAX - 1);
  Counter.add(1);
  EXPECT_EQ(Counter.value(), UINT64_MAX);
  Counter.add(12345);
  EXPECT_EQ(Counter.value(), UINT64_MAX);
  EXPECT_EQ(saturatingAdd(UINT64_MAX, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(saturatingAdd(0, 0), 0u);
}

TEST(TelemetryHistogramTest, RecordTracksCountSumMinMax) {
  TelemetryHistogram Hist;
  for (uint64_t Value : {7u, 3u, 700u, 3u})
    Hist.record(Value);
  const HistogramSnapshot &Snap = Hist.snapshot();
  EXPECT_EQ(Snap.Count, 4u);
  EXPECT_EQ(Snap.Sum, 713u);
  EXPECT_EQ(Snap.Min, 3u);
  EXPECT_EQ(Snap.Max, 700u);
  EXPECT_EQ(Snap.Buckets[3], 2u);
  EXPECT_EQ(Snap.Buckets[7], 1u);
  EXPECT_EQ(Snap.Buckets[TelemetryBuckets::indexFor(700)], 1u);
  EXPECT_DOUBLE_EQ(Snap.mean(), 713.0 / 4.0);
}

TEST(TelemetryHistogramTest, BulkRecordEqualsRepeatedScalarRecord) {
  // Probes holding (value, count) pairs flush them at once via
  // record(Value, Times); the result must be indistinguishable from Times
  // scalar record(Value) calls.
  TelemetryHistogram Bulk, Scalar;
  const std::pair<uint64_t, uint64_t> Entries[] = {
      {0, 3}, {5, 1}, {42, 7}, {1 << 20, 2}};
  for (auto [Value, Times] : Entries) {
    Bulk.record(Value, Times);
    for (uint64_t I = 0; I != Times; ++I)
      Scalar.record(Value);
  }
  EXPECT_EQ(Bulk.snapshot(), Scalar.snapshot());
}

TEST(TelemetryHistogramTest, BulkRecordZeroTimesIsANoOp) {
  // Times == 0 must not disturb anything — in particular not Min/Max,
  // which a naive implementation would clobber with the unrecorded value.
  TelemetryHistogram Hist;
  Hist.record(10);
  Hist.record(3, 0);
  Hist.record(9999, 0);
  const HistogramSnapshot &Snap = Hist.snapshot();
  EXPECT_EQ(Snap.Count, 1u);
  EXPECT_EQ(Snap.Min, 10u);
  EXPECT_EQ(Snap.Max, 10u);

  TelemetryHistogram Empty;
  Empty.record(7, 0);
  EXPECT_EQ(Empty.snapshot(), HistogramSnapshot{});
}

TEST(TelemetryHistogramTest, BulkRecordSaturatesSumAndBuckets) {
  TelemetryHistogram Hist;
  Hist.record(UINT64_MAX / 2, 3); // weight overflows uint64
  const HistogramSnapshot &Snap = Hist.snapshot();
  EXPECT_EQ(Snap.Count, 3u);
  EXPECT_EQ(Snap.Sum, UINT64_MAX) << "overflowing weight must saturate";

  TelemetryHistogram Counts;
  Counts.record(1, UINT64_MAX);
  Counts.record(1, 5);
  EXPECT_EQ(Counts.snapshot().Count, UINT64_MAX);
}

//===----------------------------------------------------------------------===//
// Registry levels
//===----------------------------------------------------------------------===//

TEST(TelemetryRegistryTest, LevelsGateInstrumentCreation) {
  Telemetry Off(TelemetryLevel::Off);
  EXPECT_EQ(Off.counter("x"), nullptr);
  EXPECT_EQ(Off.histogram("x"), nullptr);
  EXPECT_TRUE(Off.snapshot().empty());

  Telemetry Summary(TelemetryLevel::Summary);
  EXPECT_NE(Summary.counter("x"), nullptr);
  EXPECT_EQ(Summary.histogram("x"), nullptr);

  Telemetry Full(TelemetryLevel::Full);
  EXPECT_NE(Full.counter("x"), nullptr);
  EXPECT_NE(Full.histogram("x"), nullptr);
  // Same name -> same instrument (stable across repeated lookups).
  EXPECT_EQ(Full.counter("x"), Full.counter("x"));
  EXPECT_EQ(Full.histogram("x"), Full.histogram("x"));
}

TEST(TelemetryRegistryTest, LevelNamesRoundTrip) {
  for (TelemetryLevel Level : {TelemetryLevel::Off, TelemetryLevel::Summary,
                               TelemetryLevel::Full}) {
    TelemetryLevel Parsed;
    ASSERT_TRUE(tryParseTelemetryLevel(telemetryLevelName(Level), Parsed));
    EXPECT_EQ(Parsed, Level);
  }
  TelemetryLevel Ignored;
  EXPECT_FALSE(tryParseTelemetryLevel("verbose", Ignored));
  EXPECT_FALSE(tryParseTelemetryLevel("", Ignored));
}

//===----------------------------------------------------------------------===//
// Merge algebra
//===----------------------------------------------------------------------===//

/// Builds a pseudo-random snapshot from \p Rng: a handful of counters and
/// histograms over a small shared name pool, so merges exercise both the
/// name-overlap and name-union paths.
TelemetrySnapshot randomSnapshot(SplitMix64 &Rng) {
  static const char *const Names[] = {"a", "b", "c", "d", "e"};
  Telemetry Registry(TelemetryLevel::Full);
  for (const char *Name : Names)
    if (Rng.next() & 1)
      Registry.counter(Name)->add(Rng.next() % 1000);
  for (const char *Name : Names)
    if (Rng.next() & 1) {
      TelemetryHistogram *Hist = Registry.histogram(Name);
      size_t Records = Rng.next() % 8;
      for (size_t I = 0; I != Records; ++I)
        Hist->record(Rng.next() % 5000);
    }
  return Registry.snapshot();
}

TEST(TelemetryMergeTest, MergeIsCommutative) {
  SplitMix64 Rng(0xC0FFEE);
  for (int Trial = 0; Trial != 50; ++Trial) {
    TelemetrySnapshot A = randomSnapshot(Rng);
    TelemetrySnapshot B = randomSnapshot(Rng);
    TelemetrySnapshot AB = A;
    AB.merge(B);
    TelemetrySnapshot BA = B;
    BA.merge(A);
    EXPECT_EQ(AB, BA);
  }
}

TEST(TelemetryMergeTest, MergeIsAssociative) {
  SplitMix64 Rng(0xBEEF);
  for (int Trial = 0; Trial != 50; ++Trial) {
    TelemetrySnapshot A = randomSnapshot(Rng);
    TelemetrySnapshot B = randomSnapshot(Rng);
    TelemetrySnapshot C = randomSnapshot(Rng);
    // (A + B) + C
    TelemetrySnapshot Left = A;
    Left.merge(B);
    Left.merge(C);
    // A + (B + C)
    TelemetrySnapshot Right = B;
    Right.merge(C);
    TelemetrySnapshot Outer = A;
    Outer.merge(Right);
    EXPECT_EQ(Left, Outer);
  }
}

TEST(TelemetryMergeTest, AnyShuffleFoldsToTheSameSnapshot) {
  SplitMix64 Rng(0x5EED);
  std::vector<TelemetrySnapshot> Parts;
  for (int I = 0; I != 12; ++I)
    Parts.push_back(randomSnapshot(Rng));

  TelemetrySnapshot Reference;
  for (const TelemetrySnapshot &Part : Parts)
    Reference.merge(Part);

  std::vector<size_t> Order(Parts.size());
  std::iota(Order.begin(), Order.end(), 0);
  for (int Shuffle = 0; Shuffle != 20; ++Shuffle) {
    // Fisher-Yates with the deterministic RNG.
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.next() % I]);
    TelemetrySnapshot Folded;
    for (size_t Index : Order)
      Folded.merge(Parts[Index]);
    EXPECT_EQ(Folded, Reference);
  }
}

TEST(TelemetryMergeTest, MergePreservesTotalsAndExtrema) {
  TelemetryHistogram HistA, HistB;
  HistA.record(3);
  HistA.record(90);
  HistB.record(1);
  HistB.record(4000);
  HistogramSnapshot Merged = HistA.snapshot();
  Merged.merge(HistB.snapshot());
  EXPECT_EQ(Merged.Count, 4u);
  EXPECT_EQ(Merged.Sum, 3u + 90 + 1 + 4000);
  EXPECT_EQ(Merged.Min, 1u);
  EXPECT_EQ(Merged.Max, 4000u);
  // Merging an empty snapshot is the identity.
  HistogramSnapshot Identity = Merged;
  Identity.merge(HistogramSnapshot());
  EXPECT_EQ(Identity, Merged);
}

TEST(TelemetryMergeTest, MergedBucketsSaturate) {
  HistogramSnapshot A, B;
  A.Buckets[5] = UINT64_MAX - 2;
  A.Count = UINT64_MAX - 2;
  B.Buckets[5] = 10;
  B.Count = 10;
  A.merge(B);
  EXPECT_EQ(A.Buckets[5], UINT64_MAX);
  EXPECT_EQ(A.Count, UINT64_MAX);
}

//===----------------------------------------------------------------------===//
// Snapshot lookups and JSON
//===----------------------------------------------------------------------===//

TEST(TelemetrySnapshotTest, MissingNamesReadAsEmpty) {
  TelemetrySnapshot Snap;
  EXPECT_EQ(Snap.counterValue("never"), 0u);
  EXPECT_EQ(Snap.histogram("never").Count, 0u);
}

TEST(TelemetrySnapshotTest, JsonListsOnlyNonzeroBuckets) {
  Telemetry Registry(TelemetryLevel::Full);
  Registry.counter("calls")->add(3);
  Registry.histogram("len")->record(2);
  Registry.histogram("len")->record(2);
  Registry.histogram("len")->record(100);
  std::ostringstream OS;
  Registry.snapshot().writeJson(OS, "");
  std::string Json = OS.str();
  EXPECT_NE(Json.find("\"calls\": 3"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"count\": 3, \"sum\": 104"), std::string::npos)
      << Json;
  EXPECT_NE(Json.find("[2, 2]"), std::string::npos) << Json;
  // 100 lands in the 65..127 log bucket, whose lower bound is 65.
  EXPECT_NE(Json.find("[65, 1]"), std::string::npos) << Json;
  // No floating point anywhere in the snapshot form.
  EXPECT_EQ(Json.find('.'), std::string::npos) << Json;
}

//===----------------------------------------------------------------------===//
// End-to-end determinism through the matrix runner
//===----------------------------------------------------------------------===//

MatrixSpec smallTelemetrySpec() {
  MatrixSpec Spec;
  Spec.Workloads = {WorkloadId::Espresso, WorkloadId::Gs};
  Spec.Allocators = {AllocatorKind::FirstFit, AllocatorKind::QuickFit,
                     AllocatorKind::Bsd};
  Spec.Caches = {CacheConfig{16 * 1024, 32, 1}};
  Spec.Base.Engine.Scale = 512;
  Spec.Base.Telemetry = TelemetryLevel::Full;
  return Spec;
}

TEST(TelemetryMatrixTest, SnapshotsIdenticalAtAnyJobCount) {
  MatrixSpec Spec = smallTelemetrySpec();
  MatrixOptions Serial;
  Serial.Jobs = 1;
  MatrixOptions Parallel;
  Parallel.Jobs = 8;
  ResultStore One = runMatrix(Spec, Serial);
  ResultStore Eight = runMatrix(Spec, Parallel);
  ASSERT_EQ(One.failedCount(), 0u);
  ASSERT_EQ(Eight.failedCount(), 0u);

  for (size_t I = 0; I != One.size(); ++I)
    EXPECT_EQ(One.cell(I).Result.Telemetry, Eight.cell(I).Result.Telemetry)
        << "cell " << I;
  EXPECT_EQ(One.mergedTelemetry(), Eight.mergedTelemetry());

  std::ostringstream JsonOne, JsonEight;
  One.writeTelemetryJson(JsonOne);
  Eight.writeTelemetryJson(JsonEight);
  EXPECT_EQ(JsonOne.str(), JsonEight.str());
}

TEST(TelemetryMatrixTest, MergedEqualsFoldOfCells) {
  ResultStore Store = runMatrix(smallTelemetrySpec(), MatrixOptions{});
  ASSERT_EQ(Store.failedCount(), 0u);
  TelemetrySnapshot Expected;
  for (size_t I = 0; I != Store.size(); ++I)
    Expected.merge(Store.cell(I).Result.Telemetry);
  EXPECT_EQ(Store.mergedTelemetry(), Expected);
  EXPECT_FALSE(Expected.empty());
}

TEST(TelemetryMatrixTest, SpecParsesTelemetryAxis) {
  MatrixSpec Spec;
  DiagEngine Diags;
  ASSERT_TRUE(parseMatrixSpec(
      "workloads=gs;allocators=FirstFit;telemetry=full", Spec, Diags))
      << Diags.firstError();
  EXPECT_EQ(Spec.Base.Telemetry, TelemetryLevel::Full);
  EXPECT_FALSE(parseMatrixSpec(
      "workloads=gs;allocators=FirstFit;telemetry=loud", Spec, Diags));
  EXPECT_NE(Diags.firstError().find("telemetry"), std::string::npos);
}

} // namespace
