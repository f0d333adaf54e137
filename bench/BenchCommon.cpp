//===- bench/BenchCommon.cpp - Shared benchmark harness pieces ------------===//

#include "BenchCommon.h"

#include "support/Error.h"
#include "trace/RefTrace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>

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
              "export each experiment matrix as JSON to "
              "<this path>.<matrix name>.json");
  Cli.addFlag("telemetry", "off",
              "telemetry probes: off (default; bit-identical paper numbers), "
              "summary or full");
  Cli.addFlag("out-telemetry-json", "",
              "export per-cell + merged telemetry as JSON to "
              "<this path>.<matrix name>.json (matrix-backed benches only)");
  if (!Cli.parse(Argc, Argv))
    return std::nullopt;
  BenchOptions Options;
  int64_t Scale = 0, Jobs = 0;
  std::string Error;
  if (!Cli.getIntInRange("scale", 1, UINT32_MAX, Scale, Error) ||
      !Cli.getIntInRange("jobs", 0, UINT32_MAX, Jobs, Error) ||
      !Cli.getUint64("seed", Options.Seed, Error)) {
    std::cerr << "error: " << Error << "\n";
    return std::nullopt;
  }
  Options.Scale = static_cast<uint32_t>(Scale);
  Options.Csv = Cli.getBool("csv");
  Options.Jobs = static_cast<uint32_t>(Jobs);
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

std::vector<MemAccess>
allocsim::captureGsSmallStream(const BenchOptions &Options) {
  ExperimentConfig Config = baseConfig(WorkloadId::GsSmall, Options);
  Config.Allocator = AllocatorKind::FirstFit;
  RecordTap Tap;
  runExperiment(Config, nullptr, &Tap);
  return Tap.takeRecords();
}

std::string allocsim::formatRate(double Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%.3e", Value);
  return Buffer;
}

MatrixSpec allocsim::paperSpec(const std::vector<WorkloadId> &Workloads,
                              const BenchOptions &Options) {
  MatrixSpec Spec;
  Spec.Workloads = Workloads;
  Spec.Allocators.assign(PaperAllocators, PaperAllocators + 5);
  Spec.Base = baseConfig(Workloads.front(), Options);
  return Spec;
}

MatrixSpec allocsim::paperStoreSpec(const BenchOptions &Options) {
  std::vector<WorkloadId> Workloads(std::begin(PaperWorkloads),
                                    std::end(PaperWorkloads));
  Workloads.push_back(WorkloadId::GsSmall);
  Workloads.push_back(WorkloadId::GsMedium);
  MatrixSpec Spec = paperSpec(Workloads, Options);
  Spec.Caches = paperCacheSweep();
  std::set_union(Fig2MemoryKb.begin(), Fig2MemoryKb.end(),
                 Fig3MemoryKb.begin(), Fig3MemoryKb.end(),
                 std::back_inserter(Spec.PagingMemoryKb));
  return Spec;
}

MatrixSpec allocsim::tagsStoreSpec(const BenchOptions &Options) {
  MatrixSpec Spec = paperStoreSpec(Options);
  Spec.Workloads.resize(std::size(PaperWorkloads));
  Spec.Allocators = {AllocatorKind::GnuLocal};
  Spec.Caches = {CacheConfig{64 * 1024, 32, 1}};
  Spec.PagingMemoryKb.clear();
  Spec.Base.EmulateBoundaryTags = true;
  return Spec;
}

namespace {

void exportStore(const std::string &Prefix, const std::string &Name,
                 void (ResultStore::*Write)(std::ostream &) const,
                 const ResultStore &Store) {
  if (Prefix.empty())
    return;
  std::string Path = Prefix + "." + Name + ".json";
  std::ofstream Out(Path);
  if (!Out)
    reportFatalError("cannot write '" + Path + "'");
  (Store.*Write)(Out);
}

} // namespace

ResultStore allocsim::runBenchMatrix(const MatrixSpec &Spec,
                                     const std::string &Name,
                                     const BenchOptions &Options) {
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

  exportStore(Options.OutJson, Name, &ResultStore::writeJson, Store);
  exportStore(Options.OutTelemetryJson, Name, &ResultStore::writeTelemetryJson,
              Store);
  return Store;
}
