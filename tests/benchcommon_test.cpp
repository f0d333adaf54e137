//===- tests/benchcommon_test.cpp - Bench harness + paper-data tests ------===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// Coverage for the shared benchmark harness (bench/BenchCommon): the common
// flag parsing, the PaperData transcription the benches print beside
// measured values, the paper store's spec builders (expanded, not run), and
// — via death tests — runBenchMatrix's fatal paths: a
// failed cell must die with the cell's coordinates in the message, and an
// unwritable export path must die naming the <prefix>.<name>.json file.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "PaperData.h"

#include "support/Json.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

using namespace allocsim;

namespace {

std::optional<BenchOptions> parseArgs(std::vector<const char *> Argv) {
  Argv.insert(Argv.begin(), "bench_test");
  CommandLine Cli;
  return parseBenchOptions(static_cast<int>(Argv.size()), Argv.data(), Cli);
}

//===----------------------------------------------------------------------===//
// Common flag parsing
//===----------------------------------------------------------------------===//

TEST(BenchOptionsTest, DefaultsMatchDocumentation) {
  std::optional<BenchOptions> Options = parseArgs({});
  ASSERT_TRUE(Options.has_value());
  EXPECT_EQ(Options->Scale, 8u);
  EXPECT_EQ(Options->Seed, 1592932958u);
  EXPECT_FALSE(Options->Csv);
  EXPECT_EQ(Options->Jobs, 0u);
  EXPECT_TRUE(Options->OutJson.empty());
  EXPECT_EQ(Options->Telemetry, TelemetryLevel::Off);
  EXPECT_TRUE(Options->OutTelemetryJson.empty());
}

TEST(BenchOptionsTest, FlagsOverrideDefaults) {
  std::optional<BenchOptions> Options =
      parseArgs({"--scale=16", "--seed=7", "--csv=true", "--jobs=2",
                 "--out-json=matrix.json", "--telemetry=summary",
                 "--out-telemetry-json=telemetry.json"});
  ASSERT_TRUE(Options.has_value());
  EXPECT_EQ(Options->Scale, 16u);
  EXPECT_EQ(Options->Seed, 7u);
  EXPECT_TRUE(Options->Csv);
  EXPECT_EQ(Options->Jobs, 2u);
  EXPECT_EQ(Options->OutJson, "matrix.json");
  EXPECT_EQ(Options->Telemetry, TelemetryLevel::Summary);
  EXPECT_EQ(Options->OutTelemetryJson, "telemetry.json");
}

TEST(BenchOptionsTest, BadTelemetryLevelIsRejected) {
  EXPECT_FALSE(parseArgs({"--telemetry=verbose"}).has_value());
}

TEST(BenchOptionsTest, OutOfRangeScaleAndJobsAreRejected) {
  // Both flags feed 32-bit fields: a negative or oversized value must be
  // rejected, not wrapped (--scale 4294967296 would wrap to 0).
  for (const char *Bad : {"--scale=0", "--scale=-8", "--scale=4294967296",
                          "--scale=99999999999999999999", "--jobs=-1",
                          "--jobs=4294967296"})
    EXPECT_FALSE(parseArgs({Bad}).has_value()) << Bad;
  std::optional<BenchOptions> Edge =
      parseArgs({"--scale=4294967295", "--jobs=4294967295"});
  ASSERT_TRUE(Edge.has_value());
  EXPECT_EQ(Edge->Scale, 4294967295u);
  EXPECT_EQ(Edge->Jobs, 4294967295u);
}

TEST(BenchOptionsTest, SeedIsParsedAsUnsigned64Bit) {
  // strtoll used to saturate every seed at or above 2^63 to 2^63-1 and
  // to turn -1 into 2^64-1.
  for (const char *Bad : {"--seed=-1", "--seed=+7", "--seed=12abc",
                          "--seed=0x10000000000000000", "--seed="})
    EXPECT_FALSE(parseArgs({Bad}).has_value()) << Bad;
  std::optional<BenchOptions> High = parseArgs({"--seed=0xdeadbeefcafef00d"});
  ASSERT_TRUE(High.has_value());
  EXPECT_EQ(High->Seed, 0xdeadbeefcafef00dULL);
  std::optional<BenchOptions> Max = parseArgs({"--seed=18446744073709551615"});
  ASSERT_TRUE(Max.has_value());
  EXPECT_EQ(Max->Seed, UINT64_MAX);
}

TEST(BenchOptionsTest, HelpExitsWithoutOptions) {
  EXPECT_FALSE(parseArgs({"--help"}).has_value());
}

TEST(BenchOptionsTest, BaseConfigCarriesTheCommonKnobs) {
  std::optional<BenchOptions> Options =
      parseArgs({"--scale=32", "--seed=99", "--telemetry=full"});
  ASSERT_TRUE(Options.has_value());
  ExperimentConfig Config = baseConfig(WorkloadId::Gawk, *Options);
  EXPECT_EQ(Config.Workload, WorkloadId::Gawk);
  EXPECT_EQ(Config.Engine.Scale, 32u);
  EXPECT_EQ(Config.Engine.Seed, 99u);
  EXPECT_EQ(Config.Telemetry, TelemetryLevel::Full);
}

TEST(BenchOptionsTest, FormatRateUsesScientificNotation) {
  EXPECT_EQ(formatRate(0.00123), "1.230e-03");
  EXPECT_EQ(formatRate(0.0), "0.000e+00");
}

//===----------------------------------------------------------------------===//
// The PaperData transcription (Tables 4 and 5)
//===----------------------------------------------------------------------===//

TEST(PaperDataTest, ScanGapsAreExactlyWhereDocumented) {
  // Table 4 lost FIRSTFIT's ptc/gawk/make entries to the scan; Table 5
  // lost FIRSTFIT's gs entry. Everything else is transcribed. Pinning the
  // exact gap set means a transcription edit cannot silently drop a value.
  size_t Unknown4 = 0, Unknown5 = 0;
  for (int Row = 0; Row != 5; ++Row)
    for (int Col = 0; Col != 5; ++Col) {
      Unknown4 += PaperTable4[Row][Col].known() ? 0 : 1;
      Unknown5 += PaperTable5[Row][Col].known() ? 0 : 1;
    }
  EXPECT_EQ(Unknown4, 3u);
  EXPECT_EQ(Unknown5, 1u);
  EXPECT_FALSE(PaperTable4[0][2].known()); // ptc
  EXPECT_FALSE(PaperTable4[0][3].known()); // gawk
  EXPECT_FALSE(PaperTable4[0][4].known()); // make
  EXPECT_FALSE(PaperTable5[0][1].known()); // gs
}

TEST(PaperDataTest, MissSecondsAreASubsetOfTotalSeconds) {
  for (int Row = 0; Row != 5; ++Row)
    for (int Col = 0; Col != 5; ++Col)
      for (const PaperTime &Entry :
           {PaperTable4[Row][Col], PaperTable5[Row][Col]})
        if (Entry.known()) {
          EXPECT_GT(Entry.TotalSeconds, 0.0);
          EXPECT_GE(Entry.MissSeconds, 0.0);
          EXPECT_LT(Entry.MissSeconds, Entry.TotalSeconds);
        }
}

TEST(PaperDataTest, SpotCheckAgainstThePublishedTables) {
  // Corner values straight from the paper: Table 4 espresso/FIRSTFIT
  // 199.67/43.01 and Table 5 make/GNU-local 3.60/0.05.
  EXPECT_DOUBLE_EQ(PaperTable4[0][0].TotalSeconds, 199.67);
  EXPECT_DOUBLE_EQ(PaperTable4[0][0].MissSeconds, 43.01);
  EXPECT_DOUBLE_EQ(PaperTable5[4][4].TotalSeconds, 3.60);
  EXPECT_DOUBLE_EQ(PaperTable5[4][4].MissSeconds, 0.05);
}

//===----------------------------------------------------------------------===//
// The paper store and its Table 6 sibling (expansion only, no simulation)
//===----------------------------------------------------------------------===//

/// Engine seed of the \p Allocator cell of \p Workload in \p Cells.
uint64_t seedOf(const std::vector<MatrixCell> &Cells, WorkloadId Workload,
                AllocatorKind Allocator = AllocatorKind::FirstFit) {
  for (const MatrixCell &Cell : Cells)
    if (Cell.Config.Workload == Workload && Cell.Config.Allocator == Allocator)
      return Cell.Config.Engine.Seed;
  ADD_FAILURE() << "no " << allocatorKindName(Allocator) << " cell for "
                << workloadName(Workload);
  return 0;
}

TEST(PaperStoreTest, CoversEveryArtifactAxis) {
  MatrixSpec Spec = paperStoreSpec(BenchOptions());
  const std::vector<WorkloadId> Expected = {
      WorkloadId::Espresso, WorkloadId::Gs,      WorkloadId::Ptc,
      WorkloadId::Gawk,     WorkloadId::Make,    WorkloadId::GsSmall,
      WorkloadId::GsMedium};
  EXPECT_EQ(Spec.Workloads, Expected);
  EXPECT_TRUE(std::equal(std::begin(PaperAllocators), std::end(PaperAllocators),
                         Spec.Allocators.begin(), Spec.Allocators.end()));
  EXPECT_EQ(Spec.Caches, paperCacheSweep());
  for (uint32_t Kb : {16u, 64u})
    EXPECT_NE(std::find(Spec.Caches.begin(), Spec.Caches.end(),
                        CacheConfig{Kb * 1024, 32, 1}),
              Spec.Caches.end())
        << Kb;
  for (const std::vector<uint32_t> *Figure : {&Fig2MemoryKb, &Fig3MemoryKb})
    for (uint32_t Kb : *Figure)
      EXPECT_NE(std::find(Spec.PagingMemoryKb.begin(),
                          Spec.PagingMemoryKb.end(), Kb),
                Spec.PagingMemoryKb.end())
          << Kb;
  EXPECT_EQ(expandMatrix(Spec).size(), 35u);
}

TEST(PaperStoreTest, TagCellsReplayTheStoresGnuLocalStreams) {
  // Table 6 compares one request stream with and without tags.
  BenchOptions Options;
  Options.Seed = 0xdeadbeefcafef00dULL;
  std::vector<MatrixCell> Store = expandMatrix(paperStoreSpec(Options));
  std::vector<MatrixCell> Tags = expandMatrix(tagsStoreSpec(Options));
  EXPECT_FALSE(paperStoreSpec(Options).Base.EmulateBoundaryTags);
  ASSERT_EQ(Tags.size(), std::size(PaperWorkloads));
  for (size_t W = 0; W != Tags.size(); ++W) {
    const ExperimentConfig &Tagged = Tags[W].Config;
    EXPECT_EQ(Tagged.Workload, PaperWorkloads[W]);
    EXPECT_EQ(Tagged.Allocator, AllocatorKind::GnuLocal);
    EXPECT_TRUE(Tagged.EmulateBoundaryTags);
    EXPECT_EQ(Tagged.Engine.Seed,
              seedOf(Store, PaperWorkloads[W], AllocatorKind::GnuLocal))
        << W;
  }
}

TEST(PaperStoreTest, ApplicationsKeepTheSeedsOfAnApplicationsOnlyMatrix) {
  // The five applications come first, so they carry the seeds a salted
  // paperSpec over just those five gives them: Figs. 4/5 and Tables 4/5
  // do not move when other workloads join the store.
  BenchOptions Options;
  std::vector<MatrixCell> Store = expandMatrix(paperStoreSpec(Options));
  std::vector<MatrixCell> Apps = expandMatrix(paperSpec(
      {std::begin(PaperWorkloads), std::end(PaperWorkloads)}, Options));
  for (const MatrixCell &App : Apps)
    EXPECT_EQ(seedOf(Store, App.Config.Workload, App.Config.Allocator),
              App.Config.Engine.Seed)
        << workloadName(App.Config.Workload);
  // The store's workloads still get distinct streams.
  EXPECT_NE(seedOf(Store, WorkloadId::GsSmall), seedOf(Store, WorkloadId::Gs));
}

//===----------------------------------------------------------------------===//
// runBenchMatrix: the happy path and both fatal paths
//===----------------------------------------------------------------------===//

BenchOptions tinyRunOptions() {
  BenchOptions Options;
  Options.Scale = 1024; // the smallest run the harness supports
  Options.Jobs = 1;
  return Options;
}

TEST(RunBenchMatrixTest, RunsAllPaperAllocatorsAndExportsJson) {
  std::string Prefix = ::testing::TempDir() + "/benchcommon_matrix";
  BenchOptions Options = tinyRunOptions();
  Options.OutJson = Prefix;
  Options.OutTelemetryJson = Prefix + "_telemetry";

  ResultStore Store =
      runBenchMatrix(paperSpec({WorkloadId::Make}, Options), "probe", Options);
  EXPECT_EQ(Store.size(), 5u);
  EXPECT_EQ(Store.failedCount(), 0u);
  EXPECT_EQ(Store.spec().Allocators.size(), 5u);

  // Each export lands at <prefix>.<matrix name>.json.
  for (const auto &[Path, Schema] :
       {std::pair<std::string, std::string>{Prefix + ".probe.json",
                                            "allocsim-matrix-v1"},
        {Prefix + "_telemetry.probe.json", "allocsim-telemetry-v1"}}) {
    std::ifstream In(Path);
    ASSERT_TRUE(In.good()) << Path;
    std::ostringstream Text;
    Text << In.rdbuf();
    JsonValue Root;
    std::string Error;
    ASSERT_TRUE(JsonValue::parse(Text.str(), Root, Error)) << Error;
    ASSERT_NE(Root.get("schema"), nullptr);
    EXPECT_EQ(Root.get("schema")->stringValue(), Schema);
    std::remove(Path.c_str());
  }
}

TEST(RunBenchMatrixTest, FailedCellDiesWithCellAttribution) {
  BenchOptions Options = tinyRunOptions();
  Options.Scale = 0; // fails cell validation: scale must be positive
  EXPECT_DEATH(
      runBenchMatrix(paperSpec({WorkloadId::Make}, Options), "probe", Options),
      "bench matrix cell failed: workload make, allocator "
      "FirstFit: engine scale must be positive");
}

TEST(RunBenchMatrixTest, UnwritableJsonExportDiesNamingThePath) {
  BenchOptions Options = tinyRunOptions();
  Options.OutJson = "/nonexistent-dir/matrix";
  EXPECT_DEATH(
      runBenchMatrix(paperSpec({WorkloadId::Make}, Options), "probe", Options),
      "cannot write '/nonexistent-dir/matrix.probe.json'");
}

TEST(RunBenchMatrixTest, UnwritableTelemetryExportDiesNamingThePath) {
  BenchOptions Options = tinyRunOptions();
  Options.OutTelemetryJson = "/nonexistent-dir/telemetry";
  EXPECT_DEATH(
      runBenchMatrix(paperSpec({WorkloadId::Make}, Options), "probe", Options),
      "cannot write '/nonexistent-dir/telemetry.probe.json'");
}

} // namespace
