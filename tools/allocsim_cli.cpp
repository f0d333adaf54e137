//===- tools/allocsim_cli.cpp - General experiment runner -----------------===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// A command-line front end over the MatrixRunner for ad-hoc experiment
// matrices beyond the canned paper benchmarks: any set of workloads and
// allocators, any list of cache geometries, optional page-fault curve and
// penalty sweep, executed across a worker pool with deterministic results
// (parallel output is bit-identical to --jobs=1).
//
// Examples:
//   allocsim_cli --workload gs --allocators FirstFit,BSD --caches 16,64
//   allocsim_cli --workload gawk --caches 64:32:4 --penalty 100
//   allocsim_cli --matrix "workloads=gs,espresso;allocators=FirstFit,BSD;
//                caches=16,64;penalty=25,100" --jobs=8 --out-json=out.json
//
// Cache syntax: sizeKB[:blockBytes[:assoc]], comma separated. Each
// single-axis flag is one axis of a matrix spec, and every spec goes
// through parseMatrixSpec: malformed specs (empty items, trailing commas,
// non-numeric fields) are rejected with every diagnostic and exit 2, never
// silently dropped; a warning (a name listed twice) is printed and the run
// goes on.
//
// --lint / --lint-json check the --matrix spec with the same parser and
// exit without running anything: 0 when the spec is clean, 1 when findings
// were reported, 2 on bad usage.
//
// Exit status: 0 on success, 1 if any matrix cell failed, 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "analyze/LintReport.h"
#include "conform/Conformance.h"
#include "core/MatrixRunner.h"
#include "inject/FaultPlan.h"
#include "support/CommandLine.h"
#include "support/SpecParse.h"
#include "support/Table.h"

#include <cstdlib>
#include <fstream>
#include <iostream>

using namespace allocsim;

namespace {

/// Prints a usage diagnostic and returns the tool's usage-error exit code.
int usageError(const std::string &Message) {
  std::cerr << "allocsim_cli: error: " << Message << "\n";
  return 2;
}

/// The single-axis flags as one matrix spec, each flag's value taken as
/// the value of its axis. An empty --caches or --paging leaves its axis
/// out (no caches, no paging points).
bool singleAxisSpec(const CommandLine &Cli, std::string &Text,
                    std::string &Error) {
  struct AxisFlag {
    const char *Flag;
    const char *Axis;
    bool Optional;
  };
  const AxisFlag Flags[] = {{"workload", "workloads", false},
                            {"allocators", "allocators", false},
                            {"caches", "caches", true},
                            {"paging", "paging", true},
                            {"penalty", "penalty", false}};
  for (const AxisFlag &F : Flags) {
    const std::string &Value = Cli.getString(F.Flag);
    if (Value.find(';') != std::string::npos) {
      Error = "bad --" + std::string(F.Flag) + " '" + Value +
              "': ';' would start another axis (use --matrix)";
      return false;
    }
    if (Value.empty() && F.Optional)
      continue;
    Text.append(Text.empty() ? "" : ";").append(F.Axis).append("=");
    Text += Value;
  }
  return true;
}

bool writeStoreFile(const ResultStore &Store, const std::string &Path,
                    bool Csv) {
  std::ofstream Out(Path);
  if (!Out) {
    std::cerr << "allocsim_cli: error: cannot write '" << Path << "'\n";
    return false;
  }
  if (Csv)
    Store.writeCsv(Out);
  else
    Store.writeJson(Out);
  return true;
}

bool writeTelemetryFile(const ResultStore &Store, const std::string &Path,
                        bool Csv) {
  std::ofstream Out(Path);
  if (!Out) {
    std::cerr << "allocsim_cli: error: cannot write '" << Path << "'\n";
    return false;
  }
  if (Csv)
    Store.writeTelemetryCsv(Out);
  else
    Store.writeTelemetryJson(Out);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Cli;
  Cli.addFlag("workload", "gs", "workload name (espresso/gs/ptc/...)");
  Cli.addFlag("allocators", "FirstFit,QuickFit,GnuG++,BSD,GnuLocal",
              "comma-separated allocator names (also BestFit, Custom)");
  Cli.addFlag("caches", "16,64", "cache specs: sizeKB[:block[:assoc]]");
  Cli.addFlag("paging", "", "memory sizes (KB) for the page-fault curve");
  Cli.addFlag("penalty", "25", "cache miss penalties in cycles (list ok)");
  Cli.addFlag("matrix", "",
              "full experiment matrix, e.g. \"workloads=gs,espresso;"
              "allocators=FirstFit,BSD;caches=16,64;paging=512;"
              "penalty=25,100\"; overrides the single-axis flags above");
  Cli.addFlag("jobs", "0",
              "worker threads for the matrix (0 = all hardware threads); "
              "results are bit-identical at any job count");
  Cli.addFlag("out-json", "", "write the full matrix as JSON to this path");
  Cli.addFlag("out-csv", "", "write the full matrix as CSV to this path");
  Cli.addFlag("progress", "false", "report progress/ETA on stderr");
  Cli.addFlag("scale", "8", "divide paper allocation counts by this");
  Cli.addFlag("seed", "1592932958", "workload RNG seed");
  Cli.addFlag("tags", "false", "emulate boundary tags on GnuLocal");
  Cli.addFlag("check", "off",
              "heap integrity checking: off, fast (shadow sanitizer), or "
              "full (shadow + periodic invariant walks)");
  Cli.addFlag("check-interval", "64",
              "operations between invariant walks with --check=full");
  Cli.addFlag("telemetry", "off",
              "telemetry probes: off (default; zero overhead, bit-identical "
              "results), summary (counters) or full (counters + histograms)");
  Cli.addFlag("out-telemetry-json", "",
              "write per-cell + merged telemetry snapshots as JSON "
              "(schema allocsim-telemetry-v1) to this path");
  Cli.addFlag("out-telemetry-csv", "",
              "write long-form telemetry (one row per cell x instrument) "
              "as CSV to this path");
  Cli.addFlag("inject", "",
              "FaultLab fault plan, e.g. \"oom:after=65536;flip:rate=1e-4;"
              "smash:rate=1e-4;cell:rate=0.2;retry:limit=2;seed=7\"; fault "
              "sites are deterministic per seed and bit-identical at any "
              "--jobs count (defaults seed to --seed when unset)");
  Cli.addFlag("csv", "false", "emit the summary table as CSV");
  Cli.addFlag("lint", "false",
              "lint the --matrix spec exhaustively and exit without "
              "running (0 clean, 1 findings, 2 usage error)");
  Cli.addFlag("lint-json", "false",
              "like --lint, but emit the allocsim-lint-v1 JSON report");
  Cli.addFlag("conform", "false",
              "run the paper-replication conformance suites and exit "
              "without running a matrix (0 pass, 1 findings, 2 usage "
              "error); set ALLOCSIM_UPDATE_CONFORMANCE=1 to re-record the "
              "expectation files instead of checking them");
  Cli.addFlag("conform-json", "false",
              "like --conform, but emit the allocsim-conform-v1 JSON "
              "report");
  Cli.addFlag("conform-suite", "",
              "comma-separated conformance suites to run (missrate, "
              "exectime, tags, metamorphic); empty runs all");
  Cli.addFlag("conform-scale", "64",
              "workload scale divisor for the conformance suites; the "
              "committed expectations are recorded at 64, other scales "
              "run trend assertions only");
  Cli.addFlag("expectations", "tests/conformance/expectations",
              "directory of committed conformance expectation files; "
              "empty disables value-band checks");
  if (!Cli.parse(Argc, Argv))
    return 2;

  // Numeric flags feeding 32-bit fields are range-checked, not wrapped.
  std::string Error;
  int64_t Jobs = 0, Scale = 0, ConformScale = 0, CheckInterval = 0;
  if (!Cli.getIntInRange("jobs", 0, UINT32_MAX, Jobs, Error) ||
      !Cli.getIntInRange("scale", 1, UINT32_MAX, Scale, Error) ||
      !Cli.getIntInRange("conform-scale", 1, UINT32_MAX, ConformScale,
                         Error) ||
      !Cli.getIntInRange("check-interval", 0, UINT32_MAX, CheckInterval,
                         Error))
    return usageError(Error);
  uint64_t Seed = 0;
  if (!Cli.getUint64("seed", Seed, Error))
    return usageError(Error);

  if (Cli.getBool("conform") || Cli.getBool("conform-json")) {
    ConformOptions Conform;
    for (const std::string &Name :
         splitSpecList(Cli.getString("conform-suite"), ','))
      Conform.Suites.push_back(Name);
    Conform.Scale = static_cast<uint32_t>(ConformScale);
    Conform.Seed = Seed;
    Conform.Jobs = static_cast<unsigned>(Jobs);
    Conform.ExpectationsDir = Cli.getString("expectations");
    const char *Update = std::getenv("ALLOCSIM_UPDATE_CONFORMANCE");
    Conform.UpdateExpectations = Update && *Update && *Update != '0';
    ConformReport Report = runConformance(Conform);
    if (Cli.getBool("conform-json"))
      writeConformReportJson(std::cout, Report);
    else
      printConformReport(std::cout, Report);
    return Report.passed() ? 0 : 1;
  }

  if (Cli.getBool("lint") || Cli.getBool("lint-json")) {
    if (Cli.getString("matrix").empty())
      return usageError("--lint needs a --matrix spec to check");
    LintInput Input;
    Input.Name = "--matrix";
    Input.Kind = "matrix-spec";
    MatrixSpec Scratch;
    parseMatrixSpec(Cli.getString("matrix"), Scratch, Input.Diags);
    std::vector<LintInput> Inputs;
    Inputs.push_back(std::move(Input));
    if (Cli.getBool("lint-json"))
      writeLintReportJson(std::cout, Inputs);
    else
      printLintReport(std::cout, Inputs);
    return summarizeLint(Inputs).clean() ? 0 : 1;
  }

  MatrixSpec Spec;
  Spec.Base.Engine.Scale = static_cast<uint32_t>(Scale);
  Spec.Base.Engine.Seed = Seed;
  Spec.Base.EmulateBoundaryTags = Cli.getBool("tags");
  Spec.Base.Check.Level = parseCheckLevel(Cli.getString("check"));
  Spec.Base.Check.IntervalOps = static_cast<uint32_t>(CheckInterval);
  if (!tryParseTelemetryLevel(Cli.getString("telemetry"),
                              Spec.Base.Telemetry))
    return usageError("bad --telemetry '" + Cli.getString("telemetry") +
                      "' (expected off, summary or full)");
  if (!Cli.getString("inject").empty()) {
    DiagEngine Diags;
    Spec.Base.Inject = parseFaultPlan(Cli.getString("inject"), Diags);
    if (Diags.errorCount() != 0) {
      Diags.print(std::cerr, "--inject");
      return 2;
    }
    if (!Spec.Base.Inject.SeedSet)
      Spec.Base.Inject.Seed = Spec.Base.Engine.Seed;
  }

  std::string Text = Cli.getString("matrix");
  if (Text.empty() && !singleAxisSpec(Cli, Text, Error))
    return usageError(Error);
  DiagEngine Diags;
  bool Parsed = parseMatrixSpec(Text, Spec, Diags);
  for (const Diag &D : Diags.diags())
    std::cerr << "allocsim_cli: " << diagSeverityName(D.Severity) << ": "
              << D.Message << " [" << D.Rule << "]\n";
  if (!Parsed)
    return 2;

  MatrixOptions Options;
  Options.Jobs = static_cast<unsigned>(Jobs);
  if (Cli.getBool("progress"))
    Options.Progress = [](const MatrixProgress &Progress) {
      std::cerr << "matrix: " << Progress.Completed << "/" << Progress.Total
                << " cells";
      if (Progress.Failed)
        std::cerr << " (" << Progress.Failed << " failed)";
      char Eta[48];
      std::snprintf(Eta, sizeof(Eta), ", %.1fs elapsed, ~%.1fs left",
                    Progress.ElapsedSeconds, Progress.EtaSeconds);
      std::cerr << Eta << "\n";
    };

  ResultStore Store = runMatrix(Spec, Options);

  if (Spec.Base.Inject.enabled()) {
    uint64_t Injected = 0, Detected = 0, SbrkDenied = 0, Dropped = 0;
    for (size_t I = 0; I != Store.size(); ++I) {
      const CellOutcome &Cell = Store.cell(I);
      if (!Cell.Ok)
        continue;
      Injected += Cell.Result.FaultsInjected;
      Detected += Cell.Result.FaultsDetected;
      SbrkDenied += Cell.Result.SbrkDenied;
      Dropped += Cell.Result.DroppedEvents;
    }
    std::cerr << "fault injection: " << Injected << " injected, " << Detected
              << " detected, " << SbrkDenied << " sbrk denials, " << Dropped
              << " events dropped, " << Store.failedCount()
              << " cells quarantined\n";
  }

  if (!Cli.getString("out-json").empty() &&
      !writeStoreFile(Store, Cli.getString("out-json"), /*Csv=*/false))
    return 2;
  if (!Cli.getString("out-csv").empty() &&
      !writeStoreFile(Store, Cli.getString("out-csv"), /*Csv=*/true))
    return 2;
  if (!Cli.getString("out-telemetry-json").empty() &&
      !writeTelemetryFile(Store, Cli.getString("out-telemetry-json"),
                          /*Csv=*/false))
    return 2;
  if (!Cli.getString("out-telemetry-csv").empty() &&
      !writeTelemetryFile(Store, Cli.getString("out-telemetry-csv"),
                          /*Csv=*/true))
    return 2;

  bool ManyPenalties = Spec.PenaltiesCycles.size() > 1;
  std::vector<std::string> Headers = {"workload", "allocator"};
  if (ManyPenalties)
    Headers.push_back("penalty");
  Headers.insert(Headers.end(),
                 {"refs(M)", "instr(M)", "malloc+free %", "heap KB",
                  "scan/op"});
  for (const CacheConfig &Cache : Spec.Caches) {
    Headers.push_back("miss% " + std::to_string(Cache.SizeBytes / 1024) +
                      "K" + (Cache.Assoc > 1
                                 ? ":" + std::to_string(Cache.Assoc) + "w"
                                 : ""));
    Headers.push_back("est.sec");
  }
  for (uint32_t MemoryKb : Spec.PagingMemoryKb)
    Headers.push_back("flt/ref@" + std::to_string(MemoryKb) + "K");
  Table Out(Headers);

  for (size_t I = 0; I != Store.size(); ++I) {
    const CellOutcome &Cell = Store.cell(I);
    if (!Cell.Ok) {
      std::cerr << "allocsim_cli: cell failed: workload "
                << workloadName(Cell.Workload) << ", allocator "
                << allocatorKindName(Cell.Allocator) << ", penalty "
                << Cell.PenaltyCycles << ": " << Cell.Error << "\n";
      continue;
    }
    const RunResult &Result = Cell.Result;
    if (Spec.Base.Check.Level != CheckLevel::Off)
      std::cerr << "heap check [" << allocatorKindName(Cell.Allocator)
                << "]: " << Result.CheckViolations << " violations ("
                << Result.CheckWalks << " invariant walks)\n";

    Out.beginRow();
    Out.cell(workloadName(Cell.Workload));
    Out.cell(allocatorKindName(Cell.Allocator));
    if (ManyPenalties)
      Out.num(uint64_t(Cell.PenaltyCycles));
    Out.num(double(Result.TotalRefs) / 1e6, 1);
    Out.num(double(Result.totalInstructions()) / 1e6, 1);
    Out.num(100.0 * Result.allocInstrFraction(), 1);
    Out.num(uint64_t(Result.HeapBytes / 1024));
    Out.num(Result.Alloc.MallocCalls
                ? double(Result.BlocksSearched) /
                      double(Result.Alloc.MallocCalls)
                : 0.0,
            1);
    for (const CacheResult &Cache : Result.Caches) {
      Out.num(100.0 * Cache.Stats.missRate(), 2);
      Out.num(Cache.Time.seconds(), 2);
    }
    for (const PagingPoint &Point : Result.Paging) {
      char Buffer[32];
      std::snprintf(Buffer, sizeof(Buffer), "%.3e", Point.FaultsPerRef);
      Out.cell(Buffer);
    }
  }

  if (Cli.getBool("csv"))
    Out.renderCsv(std::cout);
  else
    Out.renderText(std::cout,
                   Store.failedCount()
                       ? "experiment matrix (" +
                             std::to_string(Store.failedCount()) +
                             " cells FAILED, see stderr)"
                       : "experiment matrix");
  return Store.failedCount() == 0 ? 0 : 1;
}
