//===- conform/Conformance.cpp - Paper-replication conformance ------------===//

#include "conform/Conformance.h"

#include "conform/Metamorphic.h"
#include "conform/TrendCheck.h"
#include "core/MatrixRunner.h"

#include <algorithm>
#include <map>
#include <ostream>

using namespace allocsim;

MatrixSpec allocsim::missRateSuiteSpec() {
  MatrixSpec Spec;
  Spec.Workloads = {WorkloadId::GsSmall, WorkloadId::GsMedium};
  Spec.Allocators = {AllocatorKind::FirstFit,  AllocatorKind::QuickFit,
                     AllocatorKind::GnuGxx,    AllocatorKind::Bsd,
                     AllocatorKind::GnuLocal,  AllocatorKind::Custom,
                     AllocatorKind::BitmapFit, AllocatorKind::SpaceFit};
  Spec.Caches = paperCacheSweep();
  return Spec;
}

MatrixSpec allocsim::execTimeSuiteSpec() {
  MatrixSpec Spec;
  Spec.Workloads = {WorkloadId::Espresso, WorkloadId::Make};
  Spec.Allocators.assign(std::begin(PaperAllocators),
                         std::end(PaperAllocators));
  Spec.Allocators.push_back(AllocatorKind::BitmapFit);
  Spec.Allocators.push_back(AllocatorKind::SpaceFit);
  Spec.PenaltiesCycles = {25, 100};
  Spec.Caches = {{16 * 1024, 32, 1}, {64 * 1024, 32, 1}};
  return Spec;
}

namespace {

/// Everything one suite accumulates: the stores it ran (owned here, exposed
/// to TrendCheck by name), every measured metric keyed by MetricRef::key(),
/// and check counters.
struct SuiteRun {
  std::map<std::string, ResultStore> Stores;
  std::map<std::string, double> Measured;
  size_t Cells = 0;
  size_t Checks = 0;

  StoreMap storeMap() const {
    StoreMap Map;
    for (const auto &[Name, Store] : Stores)
      Map[Name] = &Store;
    return Map;
  }
};

/// Runs one matrix under the run's engine configuration and registers it.
void runSuiteMatrix(SuiteRun &Run, const std::string &Name, MatrixSpec Spec,
                    const ConformOptions &Options, DiagEngine &Diags) {
  Spec.Base.Engine.Scale = Options.Scale;
  Spec.Base.Engine.Seed = Options.Seed;
  MatrixOptions RunOptions;
  RunOptions.Jobs = Options.Jobs;
  ResultStore Store = runMatrix(Spec, RunOptions);
  Run.Cells += Store.size();
  if (Store.failedCount() != 0)
    Diags.error("conform-missing-cell", {},
                "matrix '" + Name + "' had " +
                    std::to_string(Store.failedCount()) + " failed cells");
  Run.Stores.emplace(Name, std::move(Store));
}

/// Records every metric of every ok cell into the measured map — the value
/// set the expectation files pin. Cache-indexed metrics are recorded per
/// cache; scalar metrics once per cell.
void harvestMetrics(SuiteRun &Run, const std::string &Name) {
  const ResultStore &Store = Run.Stores.at(Name);
  const MatrixSpec &Spec = Store.spec();
  for (size_t I = 0; I != Store.size(); ++I) {
    const CellOutcome &Cell = Store.cell(I);
    if (!Cell.Ok)
      continue;
    MetricRef Ref;
    Ref.Matrix = Name;
    Ref.Workload = Cell.Workload;
    Ref.Allocator = Cell.Allocator;
    Ref.PenaltyCycles = Cell.PenaltyCycles;
    for (ConformMetric Metric :
         {ConformMetric::MissRate, ConformMetric::EstSeconds,
          ConformMetric::AllocFraction, ConformMetric::SearchPerOp,
          ConformMetric::HeapKb, ConformMetric::TagRefs}) {
      Ref.Metric = Metric;
      if (conformMetricUsesCache(Metric)) {
        for (size_t C = 0; C != Spec.Caches.size(); ++C) {
          Ref.CacheIdx = C;
          Run.Measured[Ref.key()] =
              extractConformMetric(Cell.Result, Metric, C);
        }
      } else {
        Ref.CacheIdx = 0;
        Run.Measured[Ref.key()] = extractConformMetric(Cell.Result, Metric, 0);
      }
    }
  }
}

/// Convenience builder for a cache-indexed pair assertion within one matrix
/// and workload, comparing two allocators on one metric.
PairAssert allocPair(const std::string &Note, const std::string &Matrix,
                     WorkloadId Workload, AllocatorKind Left,
                     AllocatorKind Right, ConformMetric Metric,
                     size_t CacheIdx, PairAssert::Cmp Relation,
                     uint32_t Penalty = 25) {
  PairAssert Assert;
  Assert.Note = Note;
  Assert.Left = {Matrix, Workload, Left, Penalty, Metric, CacheIdx};
  Assert.Right = {Matrix, Workload, Right, Penalty, Metric, CacheIdx};
  Assert.Relation = Relation;
  return Assert;
}

/// missrate: Figs. 6-8 (miss rate vs cache size), Fig. 1 (instruction
/// fractions) and §3.3 (search lengths) on the GhostScript input-set pair.
void runMissRateSuite(SuiteRun &Run, const ConformOptions &Options,
                      DiagEngine &Diags) {
  runSuiteMatrix(Run, "missrate", missRateSuiteSpec(), Options, Diags);
  harvestMetrics(Run, "missrate");

  StoreMap Stores = Run.storeMap();
  const ResultStore &Store = Run.Stores.at("missrate");

  // Figs. 6-8: miss rate falls (weakly) as the cache grows, for every
  // allocator and workload.
  for (WorkloadId Workload : Store.spec().Workloads) {
    for (AllocatorKind Allocator : Store.spec().Allocators) {
      MonotoneAssert Monotone;
      Monotone.Note = "Figs. 6-8: miss rate falls as the cache grows";
      Monotone.Base = {"missrate", Workload, Allocator, 25,
                       ConformMetric::MissRate, 0};
      Monotone.Along = MonotoneAssert::Axis::CacheSize;
      Monotone.Direction = MonotoneAssert::Dir::NonIncreasing;
      Run.Checks += checkMonotone(Stores, Monotone, Diags);
    }

    // Figs. 6-8: FIRSTFIT's scattered freelist gives it the worst miss rate
    // at the small-to-medium cache sizes (the orderings compress into the
    // noise at 128K+, so only the first three sizes are asserted).
    for (size_t CacheIdx = 0; CacheIdx != 3; ++CacheIdx)
      for (AllocatorKind Other :
           {AllocatorKind::QuickFit, AllocatorKind::GnuGxx,
            AllocatorKind::Bsd, AllocatorKind::GnuLocal,
            AllocatorKind::Custom})
        Run.Checks += checkPair(
            Stores,
            allocPair("Figs. 6-8: FIRSTFIT has the worst miss rate",
                      "missrate", Workload, Other, AllocatorKind::FirstFit,
                      ConformMetric::MissRate, CacheIdx, PairAssert::Cmp::LT),
            Diags);

    // §4.1: GNU Local's page-chunk segregation is the locality winner at
    // the paper's 16K cache.
    for (AllocatorKind Other :
         {AllocatorKind::FirstFit, AllocatorKind::QuickFit,
          AllocatorKind::GnuGxx, AllocatorKind::Bsd})
      Run.Checks += checkPair(
          Stores,
          allocPair("§4.1: GNU Local has the best 16K miss rate", "missrate",
                    Workload, AllocatorKind::GnuLocal, Other,
                    ConformMetric::MissRate, 0, PairAssert::Cmp::LT),
          Diags);

    // Fig. 1: BSD spends the smallest instruction fraction in malloc/free
    // among the paper five, GNU Local the largest; the synthesized Custom
    // allocator undercuts them all (§4.4).
    for (AllocatorKind Other :
         {AllocatorKind::FirstFit, AllocatorKind::QuickFit,
          AllocatorKind::GnuGxx, AllocatorKind::GnuLocal})
      Run.Checks += checkPair(
          Stores,
          allocPair("Fig. 1: BSD has the smallest allocation fraction",
                    "missrate", Workload, AllocatorKind::Bsd, Other,
                    ConformMetric::AllocFraction, 0, PairAssert::Cmp::LT),
          Diags);
    for (AllocatorKind Other :
         {AllocatorKind::FirstFit, AllocatorKind::QuickFit,
          AllocatorKind::GnuGxx, AllocatorKind::Bsd})
      Run.Checks += checkPair(
          Stores,
          allocPair("Fig. 1: GNU Local has the largest allocation fraction",
                    "missrate", Workload, Other, AllocatorKind::GnuLocal,
                    ConformMetric::AllocFraction, 0, PairAssert::Cmp::LT),
          Diags);
    for (AllocatorKind Other :
         {AllocatorKind::FirstFit, AllocatorKind::QuickFit,
          AllocatorKind::GnuGxx, AllocatorKind::Bsd,
          AllocatorKind::GnuLocal})
      Run.Checks += checkPair(
          Stores,
          allocPair("§4.4: CustomAlloc beats every paper allocator on "
                    "allocation overhead",
                    "missrate", Workload, AllocatorKind::Custom, Other,
                    ConformMetric::AllocFraction, 0, PairAssert::Cmp::LT),
          Diags);

    // §3.3: sequential first fit examines many blocks per request; the
    // segregated allocators examine none.
    for (AllocatorKind Other :
         {AllocatorKind::QuickFit, AllocatorKind::GnuGxx,
          AllocatorKind::Bsd, AllocatorKind::GnuLocal,
          AllocatorKind::Custom})
      Run.Checks += checkPair(
          Stores,
          allocPair("§3.3: FIRSTFIT searches the most blocks per malloc",
                    "missrate", Workload, Other, AllocatorKind::FirstFit,
                    ConformMetric::SearchPerOp, 0, PairAssert::Cmp::LT),
          Diags);

    // PAPERS.md moderns: BitmapFit packs same-class objects into aligned
    // slabs with one metadata line each, so it beats both sequential fits
    // on locality at the small-to-medium cache sizes; its word-at-a-time
    // bitmap scan touches only slab header lines, while SpaceFit pays best
    // fit's ordered-list walks in full, in search traffic and in
    // instruction fraction.
    for (size_t CacheIdx = 0; CacheIdx != 3; ++CacheIdx)
      for (AllocatorKind Sequential :
           {AllocatorKind::FirstFit, AllocatorKind::SpaceFit})
        Run.Checks += checkPair(
            Stores,
            allocPair("moderns: BitmapFit beats the sequential fits on "
                      "miss rate",
                      "missrate", Workload, AllocatorKind::BitmapFit,
                      Sequential, ConformMetric::MissRate, CacheIdx,
                      PairAssert::Cmp::LT),
            Diags);
    Run.Checks += checkPair(
        Stores,
        allocPair("moderns: BitmapFit's header-line scan searches fewer "
                  "blocks than SpaceFit's ordered walk",
                  "missrate", Workload, AllocatorKind::BitmapFit,
                  AllocatorKind::SpaceFit, ConformMetric::SearchPerOp, 0,
                  PairAssert::Cmp::LT),
        Diags);
    Run.Checks += checkPair(
        Stores,
        allocPair("moderns: SpaceFit's sorted-list maintenance dominates "
                  "its allocation fraction",
                  "missrate", Workload, AllocatorKind::BitmapFit,
                  AllocatorKind::SpaceFit, ConformMetric::AllocFraction, 0,
                  PairAssert::Cmp::LT),
        Diags);
  }
}

/// exectime: Tables 4-5 / Figs. 4-5 (estimated time) and §4.3 (penalty
/// sensitivity) on the espresso/make pair.
void runExecTimeSuite(SuiteRun &Run, const ConformOptions &Options,
                      DiagEngine &Diags) {
  runSuiteMatrix(Run, "exectime", execTimeSuiteSpec(), Options, Diags);
  harvestMetrics(Run, "exectime");

  StoreMap Stores = Run.storeMap();
  const ResultStore &Store = Run.Stores.at("exectime");

  for (WorkloadId Workload : Store.spec().Workloads) {
    for (AllocatorKind Allocator : Store.spec().Allocators) {
      // §4.3: a larger miss penalty can only slow the estimate down.
      for (size_t CacheIdx = 0; CacheIdx != 2; ++CacheIdx) {
        MonotoneAssert Penalty;
        Penalty.Note = "§4.3: estimated time grows with the miss penalty";
        Penalty.Base = {"exectime", Workload, Allocator, 25,
                        ConformMetric::EstSeconds, CacheIdx};
        Penalty.Along = MonotoneAssert::Axis::Penalty;
        Penalty.Direction = MonotoneAssert::Dir::NonDecreasing;
        Run.Checks += checkMonotone(Stores, Penalty, Diags);
      }
      // Figs. 6-8 shape again, on this suite's two sizes.
      MonotoneAssert Sizes;
      Sizes.Note = "Figs. 6-8: miss rate falls as the cache grows";
      Sizes.Base = {"exectime", Workload, Allocator, 25,
                    ConformMetric::MissRate, 0};
      Sizes.Along = MonotoneAssert::Axis::CacheSize;
      Sizes.Direction = MonotoneAssert::Dir::NonIncreasing;
      Run.Checks += checkMonotone(Stores, Sizes, Diags);
    }

    // Tables 4-5: BSD's low CPU overhead makes it the estimated-time
    // winner against the search-heavy and CPU-heavy extremes. (The full
    // five-way ordering is input-dependent in the paper too, so only the
    // robust comparisons gate.)
    for (size_t CacheIdx = 0; CacheIdx != 2; ++CacheIdx) {
      for (AllocatorKind Slower :
           {AllocatorKind::FirstFit, AllocatorKind::GnuLocal,
            AllocatorKind::SpaceFit})
        Run.Checks += checkPair(
            Stores,
            allocPair("Tables 4-5: BSD is faster than the overhead-heavy "
                      "allocators",
                      "exectime", Workload, AllocatorKind::Bsd, Slower,
                      ConformMetric::EstSeconds, CacheIdx,
                      PairAssert::Cmp::LT),
            Diags);
      // PAPERS.md moderns: the bitmap scan's near-constant paths beat the
      // sorted freelist's walks end to end.
      Run.Checks += checkPair(
          Stores,
          allocPair("moderns: BitmapFit is faster than SpaceFit",
                    "exectime", Workload, AllocatorKind::BitmapFit,
                    AllocatorKind::SpaceFit, ConformMetric::EstSeconds,
                    CacheIdx, PairAssert::Cmp::LT),
          Diags);
    }

    // §4.2: GNU Local's locality advantage is cancelled by CPU overhead —
    // best 16K miss rate (asserted in missrate) yet not the best time.
    Run.Checks += checkPair(
        Stores,
        allocPair("§4.2: GNU Local's CPU overhead cancels its locality win",
                  "exectime", Workload, AllocatorKind::Bsd,
                  AllocatorKind::GnuLocal, ConformMetric::EstSeconds, 0,
                  PairAssert::Cmp::LT),
        Diags);
  }
}

/// tags: Table 6 — GNU Local with emulated boundary tags against the plain
/// run: tags add reference traffic and cost time, but only a little.
void runTagsSuite(SuiteRun &Run, const ConformOptions &Options,
                  DiagEngine &Diags) {
  MatrixSpec Plain;
  Plain.Workloads = {WorkloadId::Espresso, WorkloadId::Make};
  Plain.Allocators = {AllocatorKind::GnuLocal};
  Plain.Caches = {{16 * 1024, 32, 1}};
  MatrixSpec Tagged = Plain;
  Tagged.Base.EmulateBoundaryTags = true;
  runSuiteMatrix(Run, "tags-plain", std::move(Plain), Options, Diags);
  runSuiteMatrix(Run, "tags-emulated", std::move(Tagged), Options, Diags);
  harvestMetrics(Run, "tags-plain");
  harvestMetrics(Run, "tags-emulated");

  StoreMap Stores = Run.storeMap();
  for (WorkloadId Workload : {WorkloadId::Espresso, WorkloadId::Make}) {
    PairAssert TagTraffic;
    TagTraffic.Note = "Table 6: boundary-tag emulation adds tag references";
    TagTraffic.Left = {"tags-emulated", Workload, AllocatorKind::GnuLocal,
                       25, ConformMetric::TagRefs, 0};
    TagTraffic.Right = {"tags-plain", Workload, AllocatorKind::GnuLocal, 25,
                        ConformMetric::TagRefs, 0};
    TagTraffic.Relation = PairAssert::Cmp::GT;
    Run.Checks += checkPair(Stores, TagTraffic, Diags);

    PairAssert CostsTime;
    CostsTime.Note = "Table 6: tag traffic is not free";
    CostsTime.Left = {"tags-emulated", Workload, AllocatorKind::GnuLocal, 25,
                      ConformMetric::EstSeconds, 0};
    CostsTime.Right = {"tags-plain", Workload, AllocatorKind::GnuLocal, 25,
                       ConformMetric::EstSeconds, 0};
    CostsTime.Relation = PairAssert::Cmp::GE;
    Run.Checks += checkPair(Stores, CostsTime, Diags);
  }
}

} // namespace

std::vector<std::string> allocsim::conformSuiteNames() {
  return {"missrate", "exectime", "tags", "metamorphic"};
}

size_t ConformReport::totalChecks() const {
  size_t Total = 0;
  for (const ConformSuiteResult &Suite : Suites)
    Total += Suite.ChecksRun + Suite.BandChecks;
  return Total;
}

ConformReport allocsim::runConformance(const ConformOptions &Options) {
  ConformReport Report;
  Report.Scale = Options.Scale;
  Report.Seed = Options.Seed;

  std::vector<std::string> Known = conformSuiteNames();
  std::vector<std::string> Selected =
      Options.Suites.empty() ? Known : Options.Suites;

  for (const std::string &Name : Selected) {
    if (std::find(Known.begin(), Known.end(), Name) == Known.end()) {
      Report.Diags.error("conform-unknown-suite", {},
                         "unknown conformance suite '" + Name +
                             "' (known: missrate, exectime, tags, "
                             "metamorphic)");
      continue;
    }

    ConformSuiteResult Result;
    Result.Name = Name;
    size_t ErrorsBefore = Report.Diags.errorCount();
    size_t DiagsBefore = Report.Diags.diags().size();

    SuiteRun Run;
    if (Name == "missrate") {
      runMissRateSuite(Run, Options, Report.Diags);
    } else if (Name == "exectime") {
      runExecTimeSuite(Run, Options, Report.Diags);
    } else if (Name == "tags") {
      runTagsSuite(Run, Options, Report.Diags);
    } else { // metamorphic
      MetamorphicOptions Meta;
      Meta.Scale = Options.Scale;
      Meta.Seed = Options.Seed;
      Meta.Jobs = Options.Jobs;
      Run.Checks += runMetamorphicSuite(Meta, Report.Diags);
    }
    Result.CellsRun = Run.Cells;
    Result.ChecksRun = Run.Checks;

    // Value pinning: the metamorphic suite is self-checking; the matrix
    // suites compare (or re-record) their full measured-metric maps.
    if (!Run.Measured.empty() && !Options.ExpectationsDir.empty()) {
      std::string Path = Options.ExpectationsDir + "/" + Name + ".json";
      std::string Error;
      if (Options.UpdateExpectations) {
        ExpectationFile File;
        File.Suite = Name;
        File.Scale = Options.Scale;
        File.Seed = Options.Seed;
        File.Metrics = Run.Measured;
        if (!writeExpectationFile(Path, File, Error))
          Report.Diags.error("conform-expectation-file", {}, Error);
      } else {
        ExpectationFile File;
        if (!readExpectationFile(Path, File, Error))
          Report.Diags.error("conform-expectation-file", {}, Error);
        else
          Result.BandChecks = checkExpectations(
              File, Run.Measured, Options.Scale, Options.Seed, Report.Diags);
      }
    }

    Result.Errors = Report.Diags.errorCount() - ErrorsBefore;
    Result.Warnings = (Report.Diags.diags().size() - DiagsBefore) -
                      Result.Errors;
    Report.Suites.push_back(std::move(Result));
  }
  return Report;
}

void allocsim::printConformReport(std::ostream &OS,
                                  const ConformReport &Report) {
  for (const ConformSuiteResult &Suite : Report.Suites)
    OS << "conform: suite " << Suite.Name << ": " << Suite.CellsRun
       << " cells, " << Suite.ChecksRun << " trend checks, "
       << Suite.BandChecks << " band checks, " << Suite.Errors << " errors, "
       << Suite.Warnings << " warnings\n";
  Report.Diags.print(OS, "--conform");
  OS << "conform: " << (Report.passed() ? "PASS" : "FAIL") << " ("
     << Report.totalChecks() << " checks, " << Report.Diags.errorCount()
     << " errors, " << Report.Diags.warningCount() << " warnings)\n";
}

void allocsim::writeConformReportJson(std::ostream &OS,
                                      const ConformReport &Report) {
  OS << "{\n";
  OS << "  \"schema\": \"" << ConformReportSchema << "\",\n";
  OS << "  \"scale\": " << Report.Scale << ",\n";
  OS << "  \"seed\": " << Report.Seed << ",\n";
  OS << "  \"suites\": [";
  for (size_t I = 0; I != Report.Suites.size(); ++I) {
    const ConformSuiteResult &Suite = Report.Suites[I];
    OS << (I == 0 ? "\n" : ",\n");
    OS << "    {\"name\": \"" << jsonEscaped(Suite.Name)
       << "\", \"cells\": " << Suite.CellsRun
       << ", \"trend_checks\": " << Suite.ChecksRun
       << ", \"band_checks\": " << Suite.BandChecks
       << ", \"errors\": " << Suite.Errors
       << ", \"warnings\": " << Suite.Warnings << "}";
  }
  OS << (Report.Suites.empty() ? "],\n" : "\n  ],\n");
  OS << "  \"diagnostics\": ";
  Report.Diags.writeJson(OS, "  ");
  OS << ",\n";
  OS << "  \"errors\": " << Report.Diags.errorCount() << ",\n";
  OS << "  \"warnings\": " << Report.Diags.warningCount() << ",\n";
  OS << "  \"passed\": " << (Report.passed() ? "true" : "false") << "\n";
  OS << "}\n";
}
