//===- tests/conformance/conform_test.cpp - Conformance engine tests ------===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// Unit tests for the conformance engine's pieces in isolation: metric
// extraction, the declarative assertion checkers evaluated against
// *fabricated* result stores (via the MatrixRunner's CellRunner seam, so no
// simulation runs), the expectation-file round trip and band semantics, and
// the JSON reader those files depend on. The deliberate-break tests pin the
// core acceptance property: an inverted ordering or a broken monotone trend
// is reported, with the right rule id — the engine cannot silently pass.
//
//===----------------------------------------------------------------------===//

#include "conform/Conformance.h"
#include "conform/Expectations.h"
#include "conform/PaperPoints.h"
#include "conform/TrendCheck.h"
#include "support/Json.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>

using namespace allocsim;

namespace {

//===----------------------------------------------------------------------===//
// Fabricated stores
//===----------------------------------------------------------------------===//

/// The shared fabricated matrix: 2 workloads x 3 allocators x 2 penalties,
/// 2 caches per cell.
MatrixSpec fabricatedSpec() {
  MatrixSpec Spec;
  Spec.Workloads = {WorkloadId::Espresso, WorkloadId::Make};
  Spec.Allocators = {AllocatorKind::FirstFit, AllocatorKind::Bsd,
                     AllocatorKind::GnuLocal};
  Spec.PenaltiesCycles = {25, 100};
  Spec.Caches = {{16 * 1024, 32, 1}, {64 * 1024, 32, 1}};
  return Spec;
}

/// Deterministic synthetic measurements with known shape: miss count falls
/// with cache size, rises with the allocator's enum ordinal; FirstFit is
/// the only searcher.
RunResult fabricatedResult(const ExperimentConfig &Config) {
  RunResult Result;
  Result.AppInstructions = 9000;
  Result.AllocInstructions =
      1000 + 100 * static_cast<uint64_t>(Config.Allocator);
  Result.TotalRefs = 5000;
  Result.TagRefs = Config.EmulateBoundaryTags ? 400 : 0;
  Result.HeapBytes = 64 * 1024;
  Result.BlocksSearched =
      Config.Allocator == AllocatorKind::FirstFit ? 800 : 0;
  Result.Alloc.MallocCalls = 100;
  for (const CacheConfig &Cache : Config.Caches) {
    CacheResult Entry;
    Entry.Config = Cache;
    Entry.Stats.Accesses = 5000;
    Entry.Stats.Misses = (1000 + 50 * static_cast<uint64_t>(Config.Allocator))
                         / (Cache.SizeBytes / (16 * 1024));
    Entry.Time.Instructions = Result.AppInstructions +
                              Result.AllocInstructions;
    Entry.Time.DataRefs = Result.TotalRefs;
    Entry.Time.MissRate = Entry.Stats.missRate();
    Entry.Time.MissPenalty = Config.MissPenaltyCycles;
    Result.Caches.push_back(Entry);
  }
  return Result;
}

ResultStore fabricatedStore(const MatrixSpec &Spec = fabricatedSpec()) {
  MatrixOptions Options;
  Options.Jobs = 1;
  Options.CellRunner = [](const ExperimentConfig &Config,
                          TelemetrySnapshot &) {
    return fabricatedResult(Config);
  };
  return runMatrix(Spec, Options);
}

//===----------------------------------------------------------------------===//
// Metric extraction
//===----------------------------------------------------------------------===//

TEST(ConformMetrics, NamesAreStable) {
  EXPECT_STREQ(conformMetricName(ConformMetric::MissRate), "miss_rate");
  EXPECT_STREQ(conformMetricName(ConformMetric::CacheMisses), "cache_misses");
  EXPECT_STREQ(conformMetricName(ConformMetric::EstSeconds), "est_seconds");
  EXPECT_STREQ(conformMetricName(ConformMetric::AllocFraction),
               "alloc_fraction");
  EXPECT_STREQ(conformMetricName(ConformMetric::SearchPerOp), "search_per_op");
  EXPECT_STREQ(conformMetricName(ConformMetric::HeapKb), "heap_kb");
  EXPECT_STREQ(conformMetricName(ConformMetric::TagRefs), "tag_refs");
}

TEST(ConformMetrics, CacheIndexedMetricsAreMarked) {
  EXPECT_TRUE(conformMetricUsesCache(ConformMetric::MissRate));
  EXPECT_TRUE(conformMetricUsesCache(ConformMetric::CacheMisses));
  EXPECT_TRUE(conformMetricUsesCache(ConformMetric::EstSeconds));
  EXPECT_FALSE(conformMetricUsesCache(ConformMetric::AllocFraction));
  EXPECT_FALSE(conformMetricUsesCache(ConformMetric::SearchPerOp));
  EXPECT_FALSE(conformMetricUsesCache(ConformMetric::HeapKb));
  EXPECT_FALSE(conformMetricUsesCache(ConformMetric::TagRefs));
}

TEST(ConformMetrics, ExtractionMatchesRunResult) {
  ExperimentConfig Config;
  Config.Allocator = AllocatorKind::FirstFit;
  Config.Caches = {{16 * 1024, 32, 1}, {64 * 1024, 32, 1}};
  RunResult Result = fabricatedResult(Config);

  EXPECT_DOUBLE_EQ(extractConformMetric(Result, ConformMetric::MissRate, 0),
                   Result.Caches[0].Stats.missRate());
  EXPECT_DOUBLE_EQ(
      extractConformMetric(Result, ConformMetric::CacheMisses, 1),
      static_cast<double>(Result.Caches[1].Stats.Misses));
  EXPECT_DOUBLE_EQ(extractConformMetric(Result, ConformMetric::EstSeconds, 0),
                   Result.Caches[0].Time.seconds());
  EXPECT_DOUBLE_EQ(
      extractConformMetric(Result, ConformMetric::AllocFraction, 0),
      Result.allocInstrFraction());
  EXPECT_DOUBLE_EQ(extractConformMetric(Result, ConformMetric::SearchPerOp, 0),
                   8.0);
  EXPECT_DOUBLE_EQ(extractConformMetric(Result, ConformMetric::HeapKb, 0),
                   64.0);
  EXPECT_DOUBLE_EQ(extractConformMetric(Result, ConformMetric::TagRefs, 0),
                   0.0);
}

TEST(ConformMetrics, SearchPerOpGuardsZeroMallocs) {
  RunResult Result;
  Result.BlocksSearched = 123;
  Result.Alloc.MallocCalls = 0;
  EXPECT_DOUBLE_EQ(extractConformMetric(Result, ConformMetric::SearchPerOp, 0),
                   0.0);
}

TEST(ConformMetrics, KeyFormatIsStable) {
  MetricRef Ref;
  Ref.Matrix = "main";
  Ref.Workload = WorkloadId::GsSmall;
  Ref.Allocator = AllocatorKind::FirstFit;
  Ref.PenaltyCycles = 25;
  Ref.Metric = ConformMetric::MissRate;
  Ref.CacheIdx = 0;
  EXPECT_EQ(Ref.key(), "main/gs-small/FirstFit/p25/c0/miss_rate");
}

//===----------------------------------------------------------------------===//
// Assertion checkers on fabricated stores
//===----------------------------------------------------------------------===//

TEST(TrendCheck, ResolveMetricFindsFabricatedCell) {
  ResultStore Store = fabricatedStore();
  StoreMap Stores{{"main", &Store}};
  DiagEngine Diags;

  MetricRef Ref;
  Ref.Workload = WorkloadId::Make;
  Ref.Allocator = AllocatorKind::Bsd;
  Ref.PenaltyCycles = 100;
  Ref.Metric = ConformMetric::CacheMisses;
  Ref.CacheIdx = 1;
  double Value = 0;
  ASSERT_TRUE(resolveMetric(Stores, Ref, Value, Diags));
  // Bsd ordinal is 2: (1000 + 50*2) / 4 = 275.
  EXPECT_DOUBLE_EQ(Value, 275.0);
  EXPECT_TRUE(Diags.clean());
}

TEST(TrendCheck, MissingMatrixAndCellAreDiagnosed) {
  ResultStore Store = fabricatedStore();
  StoreMap Stores{{"main", &Store}};
  DiagEngine Diags;
  double Value = 0;

  MetricRef NoMatrix;
  NoMatrix.Matrix = "nonesuch";
  EXPECT_FALSE(resolveMetric(Stores, NoMatrix, Value, Diags));

  MetricRef NoCell;
  NoCell.Workload = WorkloadId::Gawk; // not an axis value
  EXPECT_FALSE(resolveMetric(Stores, NoCell, Value, Diags));

  MetricRef NoCache;
  NoCache.Workload = WorkloadId::Espresso;
  NoCache.Allocator = AllocatorKind::Bsd;
  NoCache.Metric = ConformMetric::MissRate;
  NoCache.CacheIdx = 7;
  EXPECT_FALSE(resolveMetric(Stores, NoCache, Value, Diags));

  ASSERT_EQ(Diags.errorCount(), 3u);
  for (const Diag &D : Diags.diags())
    EXPECT_EQ(D.Rule, "conform-missing-cell");
}

TEST(TrendCheck, OrderingPassesWhenShapeHolds) {
  ResultStore Store = fabricatedStore();
  StoreMap Stores{{"main", &Store}};
  DiagEngine Diags;

  // Fabricated misses grow with the allocator ordinal: FirstFit(0) <
  // Bsd(2) < GnuLocal(3).
  OrderingAssert Assert;
  Assert.Note = "fabricated ordering";
  Assert.Base = {"main", WorkloadId::Espresso, AllocatorKind::FirstFit, 25,
                 ConformMetric::CacheMisses, 0};
  Assert.Ascending = {AllocatorKind::FirstFit, AllocatorKind::Bsd,
                      AllocatorKind::GnuLocal};
  EXPECT_EQ(checkOrdering(Stores, Assert, Diags), 2u);
  EXPECT_TRUE(Diags.clean());
}

TEST(TrendCheck, DeliberatelyInvertedOrderingFails) {
  ResultStore Store = fabricatedStore();
  StoreMap Stores{{"main", &Store}};
  DiagEngine Diags;

  OrderingAssert Assert;
  Assert.Note = "deliberately inverted";
  Assert.Base = {"main", WorkloadId::Espresso, AllocatorKind::FirstFit, 25,
                 ConformMetric::CacheMisses, 0};
  Assert.Ascending = {AllocatorKind::GnuLocal, AllocatorKind::Bsd,
                      AllocatorKind::FirstFit};
  EXPECT_EQ(checkOrdering(Stores, Assert, Diags), 2u);
  ASSERT_EQ(Diags.errorCount(), 2u);
  EXPECT_EQ(Diags.diags()[0].Rule, "conform-ordering");
  EXPECT_NE(Diags.diags()[0].Message.find("deliberately inverted"),
            std::string::npos);
}

TEST(TrendCheck, MonotoneAlongCacheSizePassesAndFails) {
  ResultStore Store = fabricatedStore();
  StoreMap Stores{{"main", &Store}};

  MonotoneAssert Assert;
  Assert.Note = "misses fall with cache size";
  Assert.Base = {"main", WorkloadId::Espresso, AllocatorKind::Bsd, 25,
                 ConformMetric::CacheMisses, 0};
  Assert.Along = MonotoneAssert::Axis::CacheSize;
  Assert.Direction = MonotoneAssert::Dir::NonIncreasing;

  DiagEngine Pass;
  EXPECT_EQ(checkMonotone(Stores, Assert, Pass), 1u);
  EXPECT_TRUE(Pass.clean());

  // Deliberate break: demand the opposite direction.
  Assert.Direction = MonotoneAssert::Dir::NonDecreasing;
  DiagEngine Fail;
  EXPECT_EQ(checkMonotone(Stores, Assert, Fail), 1u);
  ASSERT_EQ(Fail.errorCount(), 1u);
  EXPECT_EQ(Fail.diags()[0].Rule, "conform-monotone");
}

TEST(TrendCheck, MonotoneAlongPenaltyUsesSpecOrder) {
  ResultStore Store = fabricatedStore();
  StoreMap Stores{{"main", &Store}};
  DiagEngine Diags;

  // Estimated seconds grow with the penalty (fabricated Time uses the
  // cell's penalty).
  MonotoneAssert Assert;
  Assert.Note = "time grows with penalty";
  Assert.Base = {"main", WorkloadId::Make, AllocatorKind::GnuLocal, 25,
                 ConformMetric::EstSeconds, 0};
  Assert.Along = MonotoneAssert::Axis::Penalty;
  Assert.Direction = MonotoneAssert::Dir::NonDecreasing;
  EXPECT_EQ(checkMonotone(Stores, Assert, Diags), 1u);
  EXPECT_TRUE(Diags.clean());
}

TEST(TrendCheck, PairComparesAcrossMatrices) {
  ResultStore Store = fabricatedStore();

  // A second store fabricated with boundary tags: TagRefs goes 0 -> 400.
  MatrixSpec Tagged = fabricatedSpec();
  Tagged.Base.EmulateBoundaryTags = true;
  ResultStore TaggedStore = fabricatedStore(Tagged);

  StoreMap Stores{{"plain", &Store}, {"tagged", &TaggedStore}};
  DiagEngine Diags;

  PairAssert Assert;
  Assert.Note = "tags add tag refs";
  Assert.Left = {"tagged", WorkloadId::Espresso, AllocatorKind::Bsd, 25,
                 ConformMetric::TagRefs, 0};
  Assert.Right = {"plain", WorkloadId::Espresso, AllocatorKind::Bsd, 25,
                  ConformMetric::TagRefs, 0};
  Assert.Relation = PairAssert::Cmp::GT;
  EXPECT_EQ(checkPair(Stores, Assert, Diags), 1u);
  EXPECT_TRUE(Diags.clean());

  // Deliberate break: flip the relation.
  Assert.Relation = PairAssert::Cmp::LT;
  EXPECT_EQ(checkPair(Stores, Assert, Diags), 1u);
  ASSERT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.diags()[0].Rule, "conform-pair");
}

//===----------------------------------------------------------------------===//
// Expectation files
//===----------------------------------------------------------------------===//

class TempFile {
public:
  explicit TempFile(const std::string &Name)
      : Path(::testing::TempDir() + "/" + Name) {}
  ~TempFile() { std::remove(Path.c_str()); }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

TEST(Expectations, RoundTripIsExact) {
  TempFile File("conform_roundtrip.json");
  ExpectationFile Out;
  Out.Suite = "unit";
  Out.Scale = 64;
  Out.Seed = 1592932958ULL;
  Out.BandPercent = 2.5;
  Out.Metrics["a/b/c0/miss_rate"] = 0.05854221029395002;
  Out.Metrics["a/b/c0/heap_kb"] = 580;
  Out.Metrics["a/b/c0/search_per_op"] = 0;

  std::string Error;
  ASSERT_TRUE(writeExpectationFile(File.path(), Out, Error)) << Error;
  ExpectationFile In;
  ASSERT_TRUE(readExpectationFile(File.path(), In, Error)) << Error;
  EXPECT_EQ(In.Suite, Out.Suite);
  EXPECT_EQ(In.Scale, Out.Scale);
  EXPECT_EQ(In.Seed, Out.Seed);
  EXPECT_DOUBLE_EQ(In.BandPercent, Out.BandPercent);
  ASSERT_EQ(In.Metrics.size(), Out.Metrics.size());
  for (const auto &[Key, Value] : Out.Metrics) {
    ASSERT_TRUE(In.Metrics.count(Key)) << Key;
    EXPECT_EQ(In.Metrics.at(Key), Value) << Key; // bit-exact round trip
  }
}

TEST(Expectations, ReaderRejectsBadFiles) {
  std::string Error;
  ExpectationFile File;
  EXPECT_FALSE(
      readExpectationFile("/nonexistent/conform.json", File, Error));

  TempFile Bad("conform_bad.json");
  std::ofstream(Bad.path()) << "{\"schema\": \"other-schema\"}";
  EXPECT_FALSE(readExpectationFile(Bad.path(), File, Error));
  EXPECT_NE(Error.find("schema"), std::string::npos);

  TempFile Junk("conform_junk.json");
  std::ofstream(Junk.path()) << "not json";
  EXPECT_FALSE(readExpectationFile(Junk.path(), File, Error));
}

TEST(Expectations, BandSemantics) {
  EXPECT_TRUE(withinBand(100.0, 101.9, 2.0));
  EXPECT_TRUE(withinBand(100.0, 98.1, 2.0));
  EXPECT_FALSE(withinBand(100.0, 102.1, 2.0));
  EXPECT_FALSE(withinBand(100.0, 97.9, 2.0));
  EXPECT_TRUE(withinBand(-100.0, -101.9, 2.0));
  // Zero expectations demand exact zero.
  EXPECT_TRUE(withinBand(0.0, 0.0, 2.0));
  EXPECT_FALSE(withinBand(0.0, 1e-9, 2.0));
  // Exact match always passes, even with a zero-width band.
  EXPECT_TRUE(withinBand(3.25, 3.25, 0.0));
}

TEST(Expectations, CheckReportsBandAndKeyFindings) {
  ExpectationFile File;
  File.Suite = "unit";
  File.Scale = 64;
  File.Seed = 7;
  File.BandPercent = 2.0;
  File.Metrics["kept"] = 100.0;
  File.Metrics["drifted"] = 100.0;
  File.Metrics["vanished"] = 1.0;

  std::map<std::string, double> Measured{
      {"kept", 100.5}, {"drifted", 110.0}, {"unrecorded", 5.0}};

  DiagEngine Diags;
  EXPECT_EQ(checkExpectations(File, Measured, 64, 7, Diags), 2u);
  EXPECT_EQ(Diags.errorCount(), 3u); // band + vanished + unrecorded
  size_t BandFindings = 0, KeyFindings = 0;
  for (const Diag &D : Diags.diags()) {
    if (D.Rule == "conform-expectation-band")
      ++BandFindings;
    else if (D.Rule == "conform-expectation-keys")
      ++KeyFindings;
  }
  EXPECT_EQ(BandFindings, 1u);
  EXPECT_EQ(KeyFindings, 2u);
}

TEST(Expectations, ScaleMismatchSkipsWithWarning) {
  ExpectationFile File;
  File.Suite = "unit";
  File.Scale = 64;
  File.Seed = 7;
  File.Metrics["m"] = 100.0;

  std::map<std::string, double> Measured{{"m", 500.0}}; // would fail band
  DiagEngine Diags;
  EXPECT_EQ(checkExpectations(File, Measured, 1, 7, Diags), 0u);
  EXPECT_EQ(Diags.errorCount(), 0u);
  ASSERT_EQ(Diags.warningCount(), 1u);
  EXPECT_EQ(Diags.diags()[0].Rule, "conform-expectation-scale");
}

TEST(Expectations, CommittedFilesLoadAndMatchSchema) {
  for (const char *Suite : {"missrate", "exectime", "tags"}) {
    std::string Path =
        std::string(ALLOCSIM_EXPECTATIONS_DIR) + "/" + Suite + ".json";
    ExpectationFile File;
    std::string Error;
    ASSERT_TRUE(readExpectationFile(Path, File, Error)) << Error;
    EXPECT_EQ(File.Suite, Suite);
    EXPECT_EQ(File.Scale, 64u);
    EXPECT_FALSE(File.Metrics.empty());
  }
}

//===----------------------------------------------------------------------===//
// The JSON reader
//===----------------------------------------------------------------------===//

TEST(Json, ParsesScalars) {
  JsonValue Value;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse("true", Value, Error));
  EXPECT_TRUE(Value.isBool());
  EXPECT_TRUE(Value.boolValue());

  ASSERT_TRUE(JsonValue::parse("null", Value, Error));
  EXPECT_TRUE(Value.isNull());

  ASSERT_TRUE(JsonValue::parse("-3.5e2", Value, Error));
  EXPECT_TRUE(Value.isNumber());
  EXPECT_FALSE(Value.isInteger());
  EXPECT_DOUBLE_EQ(Value.numberValue(), -350.0);

  ASSERT_TRUE(JsonValue::parse("18446744073709551615", Value, Error));
  EXPECT_TRUE(Value.isInteger());
  EXPECT_EQ(Value.uintValue(), UINT64_MAX);

  ASSERT_TRUE(JsonValue::parse("-42", Value, Error));
  EXPECT_TRUE(Value.isInteger());
  EXPECT_EQ(Value.intValue(), -42);

  ASSERT_TRUE(JsonValue::parse("\"a\\n\\\"b\\u0041\"", Value, Error));
  EXPECT_EQ(Value.stringValue(), "a\n\"bA");
}

TEST(Json, ParsesNestedStructures) {
  JsonValue Value;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(
      "{\"a\": [1, 2, {\"b\": false}], \"c\": {\"d\": \"e\"}}", Value,
      Error))
      << Error;
  ASSERT_TRUE(Value.isObject());
  const JsonValue *A = Value.get("a");
  ASSERT_NE(A, nullptr);
  ASSERT_TRUE(A->isArray());
  ASSERT_EQ(A->array().size(), 3u);
  EXPECT_EQ(A->array()[0].intValue(), 1);
  EXPECT_FALSE(A->array()[2].get("b")->boolValue());
  EXPECT_EQ(Value.get("c")->get("d")->stringValue(), "e");
  EXPECT_EQ(Value.get("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput) {
  JsonValue Value;
  std::string Error;
  EXPECT_FALSE(JsonValue::parse("", Value, Error));
  EXPECT_FALSE(JsonValue::parse("{", Value, Error));
  EXPECT_FALSE(JsonValue::parse("[1,]", Value, Error));
  EXPECT_FALSE(JsonValue::parse("{\"a\" 1}", Value, Error));
  EXPECT_FALSE(JsonValue::parse("tru", Value, Error));
  EXPECT_FALSE(JsonValue::parse("1 2", Value, Error));
  EXPECT_FALSE(JsonValue::parse("\"unterminated", Value, Error));
  EXPECT_NE(Error.find("offset"), std::string::npos);
}

TEST(Json, RejectsPathologicalNesting) {
  std::string Deep(100, '[');
  Deep += std::string(100, ']');
  JsonValue Value;
  std::string Error;
  EXPECT_FALSE(JsonValue::parse(Deep, Value, Error));
  EXPECT_NE(Error.find("deep"), std::string::npos);
}

TEST(Json, ParsesConformReportOutput) {
  // The conform JSON report must be readable by our own parser.
  ConformReport Report;
  Report.Scale = 64;
  Report.Seed = 1592932958ULL;
  ConformSuiteResult Suite;
  Suite.Name = "missrate";
  Suite.CellsRun = 12;
  Suite.ChecksRun = 122;
  Report.Suites.push_back(Suite);
  Report.Diags.error("conform-ordering", {}, "example \"quoted\" finding");

  std::ostringstream OS;
  writeConformReportJson(OS, Report);
  JsonValue Value;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(OS.str(), Value, Error)) << Error;
  EXPECT_EQ(Value.get("schema")->stringValue(), "allocsim-conform-v1");
  EXPECT_EQ(Value.get("suites")->array().size(), 1u);
  EXPECT_EQ(Value.get("errors")->uintValue(), 1u);
  EXPECT_FALSE(Value.get("passed")->boolValue());
  EXPECT_EQ(Value.get("diagnostics")->array().size(), 1u);
}

//===----------------------------------------------------------------------===//
// Paper data points (moved to conform/PaperPoints.h; satellite coverage)
//===----------------------------------------------------------------------===//

TEST(PaperPoints, TablesAreInternallyConsistent) {
  for (int Row = 0; Row != 5; ++Row) {
    for (int Col = 0; Col != 5; ++Col) {
      for (const PaperTime &Entry :
           {PaperTable4[Row][Col], PaperTable5[Row][Col]}) {
        if (!Entry.known()) {
          // Scan-corrupted entries are wholly unknown, never half-known.
          EXPECT_LT(Entry.MissSeconds, 0.0);
          continue;
        }
        // Miss seconds are a share of total seconds.
        EXPECT_GE(Entry.MissSeconds, 0.0);
        EXPECT_LT(Entry.MissSeconds, Entry.TotalSeconds);
      }
    }
  }
}

TEST(PaperPoints, LargerCacheNeverSlowerInPaper) {
  // Table 5 (64K cache) total times are below Table 4's (16K cache)
  // wherever both survived the scan — the paper's own data obeys the
  // trend the conformance suites assert on the reproduction.
  for (int Row = 0; Row != 5; ++Row)
    for (int Col = 0; Col != 5; ++Col)
      if (PaperTable4[Row][Col].known() && PaperTable5[Row][Col].known()) {
        EXPECT_LT(PaperTable5[Row][Col].TotalSeconds,
                  PaperTable4[Row][Col].TotalSeconds)
            << "row " << Row << " col " << Col;
      }
}

TEST(PaperPoints, BsdIsFastestWhereTable4IsComplete) {
  // The espresso column (0) is complete in Table 4; BSD (row 3) is the
  // paper's fastest allocator there — the claim the exectime suite gates.
  for (int Row = 0; Row != 5; ++Row)
    if (Row != 3) {
      EXPECT_LT(PaperTable4[3][0].TotalSeconds,
                PaperTable4[Row][0].TotalSeconds)
          << "row " << Row;
    }
}

//===----------------------------------------------------------------------===//
// Suite registry
//===----------------------------------------------------------------------===//

TEST(Conformance, SuiteRegistryIsStable) {
  std::vector<std::string> Names = conformSuiteNames();
  ASSERT_EQ(Names.size(), 4u);
  EXPECT_EQ(Names[0], "missrate");
  EXPECT_EQ(Names[1], "exectime");
  EXPECT_EQ(Names[2], "tags");
  EXPECT_EQ(Names[3], "metamorphic");
}

TEST(Conformance, UnknownSuiteIsReportedNotFatal) {
  ConformOptions Options;
  Options.Suites = {"nonesuch"};
  ConformReport Report = runConformance(Options);
  EXPECT_FALSE(Report.passed());
  ASSERT_EQ(Report.Diags.errorCount(), 1u);
  EXPECT_EQ(Report.Diags.diags()[0].Rule, "conform-unknown-suite");
  EXPECT_TRUE(Report.Suites.empty());
}

} // namespace
