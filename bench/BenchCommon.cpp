//===- bench/BenchCommon.cpp - Shared benchmark harness pieces ------------===//

#include "BenchCommon.h"

#include "PaperData.h"

#include "support/Error.h"

#include <cstdio>
#include <fstream>
#include <iostream>

using namespace allocsim;

std::optional<BenchOptions>
allocsim::parseBenchOptions(int Argc, const char *const *Argv,
                            CommandLine &Cli) {
  Cli.addFlag("scale", "8", "divide paper allocation counts by this");
  Cli.addFlag("seed", "1592932958", "workload RNG seed");
  Cli.addFlag("csv", "false", "emit CSV instead of aligned text");
  Cli.addFlag("jobs", "0",
              "matrix worker threads (0 = all hardware threads)");
  Cli.addFlag("out-json", "",
              "export the full experiment matrix as JSON to this path");
  Cli.addFlag("telemetry", "off",
              "telemetry probes: off (default; bit-identical paper numbers), "
              "summary or full");
  Cli.addFlag("out-telemetry-json", "",
              "export per-cell + merged telemetry as JSON to this path "
              "(matrix-backed benches only)");
  if (!Cli.parse(Argc, Argv))
    return std::nullopt;
  BenchOptions Options;
  Options.Scale = static_cast<uint32_t>(Cli.getInt("scale"));
  Options.Seed = static_cast<uint64_t>(Cli.getInt("seed"));
  Options.Csv = Cli.getBool("csv");
  Options.Jobs = static_cast<uint32_t>(Cli.getInt("jobs"));
  Options.OutJson = Cli.getString("out-json");
  if (!tryParseTelemetryLevel(Cli.getString("telemetry"),
                              Options.Telemetry)) {
    std::cerr << "error: bad --telemetry '" << Cli.getString("telemetry")
              << "' (expected off, summary or full)\n";
    return std::nullopt;
  }
  Options.OutTelemetryJson = Cli.getString("out-telemetry-json");
  return Options;
}

void allocsim::printBanner(const std::string &Title,
                           const BenchOptions &Options) {
  std::cout << "=== " << Title << " ===\n"
            << "(workloads at 1/" << Options.Scale
            << " of the paper's allocation counts; live heaps kept at paper "
               "scale;\n unscalable workloads clamped; seed "
            << Options.Seed << ")\n\n";
}

void allocsim::renderTable(const Table &Out, const BenchOptions &Options,
                           const std::string &Title) {
  if (Options.Csv)
    Out.renderCsv(std::cout);
  else
    Out.renderText(std::cout, Title);
  std::cout << "\n";
}

ExperimentConfig allocsim::baseConfig(WorkloadId Workload,
                                      const BenchOptions &Options) {
  ExperimentConfig Config;
  Config.Workload = Workload;
  Config.Engine.Scale = Options.Scale;
  Config.Engine.Seed = Options.Seed;
  Config.Telemetry = Options.Telemetry;
  return Config;
}

std::string allocsim::formatRate(double Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%.3e", Value);
  return Buffer;
}

ResultStore allocsim::runBenchMatrix(const std::vector<WorkloadId> &Workloads,
                                     const std::vector<CacheConfig> &Caches,
                                     const BenchOptions &Options) {
  MatrixSpec Spec;
  Spec.Workloads = Workloads;
  Spec.Allocators.assign(PaperAllocators, PaperAllocators + 5);
  Spec.Caches = Caches;
  Spec.Base = baseConfig(Workloads.front(), Options);

  MatrixOptions Run;
  Run.Jobs = Options.Jobs;
  ResultStore Store = runMatrix(Spec, Run);

  for (size_t I = 0; I != Store.size(); ++I) {
    const CellOutcome &Cell = Store.cell(I);
    if (!Cell.Ok)
      reportFatalError(std::string("bench matrix cell failed: workload ") +
                       workloadName(Cell.Workload) + ", allocator " +
                       allocatorKindName(Cell.Allocator) + ": " +
                       Cell.Error);
  }

  if (!Options.OutJson.empty()) {
    std::ofstream Out(Options.OutJson);
    if (!Out)
      reportFatalError("cannot write '" + Options.OutJson + "'");
    Store.writeJson(Out);
  }
  if (!Options.OutTelemetryJson.empty()) {
    std::ofstream Out(Options.OutTelemetryJson);
    if (!Out)
      reportFatalError("cannot write '" + Options.OutTelemetryJson + "'");
    Store.writeTelemetryJson(Out);
  }
  return Store;
}

std::vector<std::vector<RunResult>>
allocsim::runTimeStudy(uint32_t CacheKb, const BenchOptions &Options) {
  ResultStore Store = runBenchMatrix(
      {PaperWorkloads, PaperWorkloads + 5},
      {CacheConfig{CacheKb * 1024, 32, 1}}, Options);
  std::vector<std::vector<RunResult>> Results;
  for (size_t W = 0; W != 5; ++W) {
    Results.emplace_back();
    for (size_t A = 0; A != 5; ++A)
      Results.back().push_back(Store.at(W, A).Result);
  }
  return Results;
}

void allocsim::emitNormalizedTimeStudy(uint32_t CacheKb,
                                       const BenchOptions &Options) {
  std::vector<std::vector<RunResult>> Results =
      runTimeStudy(CacheKb, Options);

  std::vector<std::string> Headers = {"allocator"};
  for (WorkloadId Workload : PaperWorkloads)
    Headers.push_back(std::string(workloadName(Workload)) + " base/total");
  Table Out(Headers);

  for (size_t AllocIdx = 0; AllocIdx != 5; ++AllocIdx) {
    Out.beginRow();
    Out.cell(allocatorKindName(PaperAllocators[AllocIdx]));
    for (size_t AppIdx = 0; AppIdx != 5; ++AppIdx) {
      const RunResult &Run = Results[AppIdx][AllocIdx];
      const RunResult &FirstFit = Results[AppIdx][0];
      double BaseNorm = double(Run.totalInstructions()) /
                        double(FirstFit.totalInstructions());
      double TotalNorm = Run.Caches[0].Time.totalCycles() /
                         FirstFit.Caches[0].Time.totalCycles();
      Out.cell(formatDouble(BaseNorm, 3) + "/" + formatDouble(TotalNorm, 3));
    }
  }
  renderTable(Out, Options,
              "execution time normalized to FirstFit "
              "(base = instructions only; total = with cache penalty)");

  Table Share({"allocator", "espresso", "gs", "ptc", "gawk", "make"});
  for (size_t AllocIdx = 0; AllocIdx != 5; ++AllocIdx) {
    Share.beginRow();
    Share.cell(allocatorKindName(PaperAllocators[AllocIdx]));
    for (size_t AppIdx = 0; AppIdx != 5; ++AppIdx) {
      const RunResult &Run = Results[AppIdx][AllocIdx];
      Share.num(100.0 * Run.Caches[0].Time.missCycles() /
                    Run.Caches[0].Time.totalCycles(),
                1);
    }
  }
  renderTable(Share, Options, "cache-miss share of execution time (%)");
}

void allocsim::emitTimeTable(uint32_t CacheKb, const PaperTime Paper[5][5],
                             const BenchOptions &Options) {
  std::vector<std::vector<RunResult>> Results =
      runTimeStudy(CacheKb, Options);

  auto FormatPaper = [](const PaperTime &Entry) -> std::string {
    if (Entry.TotalSeconds < 0)
      return "?";
    return formatDouble(Entry.TotalSeconds, 2) + "/" +
           formatDouble(Entry.MissSeconds, 2);
  };

  std::vector<std::string> Headers = {"allocator"};
  for (WorkloadId Workload : PaperWorkloads) {
    Headers.push_back(std::string(workloadName(Workload)));
    Headers.push_back("paper");
  }
  Table Out(Headers);

  for (size_t AllocIdx = 0; AllocIdx != 5; ++AllocIdx) {
    Out.beginRow();
    Out.cell(allocatorKindName(PaperAllocators[AllocIdx]));
    for (size_t AppIdx = 0; AppIdx != 5; ++AppIdx) {
      const RunResult &Run = Results[AppIdx][AllocIdx];
      WorkloadEngine Engine(getProfile(PaperWorkloads[AppIdx]),
                            baseConfig(PaperWorkloads[AppIdx], Options)
                                .Engine);
      // Seconds at the run's scale multiplied back to paper scale; live
      // heaps are unscaled so the miss *rate* is directly comparable.
      double Scale = Engine.effectiveScale();
      double Total = Run.Caches[0].Time.seconds() * Scale;
      double Miss = Run.Caches[0].Time.missSeconds() * Scale;
      Out.cell(formatDouble(Total, 2) + "/" + formatDouble(Miss, 2));
      Out.cell(FormatPaper(Paper[AllocIdx][AppIdx]));
    }
  }
  renderTable(Out, Options,
              "estimated total seconds / seconds waiting on " +
                  std::to_string(CacheKb) +
                  "K-cache misses (25 MHz, scaled back to paper volume)");
}

void allocsim::runPageFaultFigure(WorkloadId Workload,
                                  const std::vector<uint32_t> &MemoryKb,
                                  const BenchOptions &Options) {
  std::vector<RunResult> Results;
  for (AllocatorKind Allocator : PaperAllocators) {
    ExperimentConfig Config = baseConfig(Workload, Options);
    Config.Allocator = Allocator;
    Config.PagingMemoryKb = MemoryKb;
    Results.push_back(runExperiment(Config));
  }

  std::vector<std::string> Headers = {"memory KB"};
  for (AllocatorKind Allocator : PaperAllocators)
    Headers.emplace_back(allocatorKindName(Allocator));
  Table Out(Headers);
  for (size_t Row = 0; Row != MemoryKb.size(); ++Row) {
    Out.beginRow();
    Out.num(uint64_t(MemoryKb[Row]));
    for (const RunResult &Result : Results)
      Out.cell(formatRate(Result.Paging[Row].FaultsPerRef));
  }
  renderTable(Out, Options, "page faults per memory reference (4 KB pages)");

  Table Heap({"allocator", "total heap KB", "distinct pages"});
  for (size_t I = 0; I != Results.size(); ++I) {
    Heap.beginRow();
    Heap.cell(allocatorKindName(PaperAllocators[I]));
    Heap.num(uint64_t(Results[I].HeapBytes / 1024));
    Heap.num(Results[I].DistinctPages);
  }
  renderTable(Heap, Options,
              "memory requested per allocator (the figure's x-axis ends)");
}
