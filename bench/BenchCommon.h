//===- bench/BenchCommon.h - Shared benchmark harness pieces ----*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flag handling, formatting, the paper store's matrix specs and the matrix
/// runner shared by the benchmark binaries (allocsim_reproduce, Figure 9,
/// the extensions). Every binary accepts:
///
///   --scale N      divide the paper's allocation counts by N (default 8;
///                  workloads that cannot be scaled without shrinking their
///                  live heap, like PTC, are clamped automatically)
///   --seed S       workload RNG seed (unsigned 64-bit, decimal or 0x hex)
///   --csv          emit CSV instead of aligned text
///   --jobs N       MatrixRunner worker threads for the sweep benches
///                  (0 = all hardware threads; results are bit-identical
///                  at any job count)
///   --out-json P   also export each experiment matrix as JSON to
///                  P.<matrix name>.json
///
/// and prints the paper artifacts it regenerates, alongside the paper's
/// published values where the scanned text preserves them.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_BENCH_BENCHCOMMON_H
#define ALLOCSIM_BENCH_BENCHCOMMON_H

#include "core/Lab.h"
#include "core/MatrixRunner.h"
#include "support/CommandLine.h"
#include "support/Table.h"

#include <optional>
#include <string>

namespace allocsim {

/// Parsed common flags.
struct BenchOptions {
  uint32_t Scale = 8;
  uint64_t Seed = 0x5EEDBA5E;
  bool Csv = false;
  /// MatrixRunner worker threads (0 = all hardware threads).
  uint32_t Jobs = 0;
  /// When non-empty, matrix-backed benches also export each ResultStore
  /// as JSON to <OutJson>.<matrix name>.json.
  std::string OutJson;
  /// Telemetry probe level for every run (off keeps the paper numbers
  /// bit-identical; summary/full add counters/histograms to the export).
  TelemetryLevel Telemetry = TelemetryLevel::Off;
  /// When non-empty, matrix-backed benches also export per-cell + merged
  /// telemetry ("allocsim-telemetry-v1") to <OutTelemetryJson>.<matrix
  /// name>.json.
  std::string OutTelemetryJson;
};

/// Registers and parses the common flags (plus any caller-registered ones
/// through \p Cli). Returns nullopt if the program should exit.
std::optional<BenchOptions> parseBenchOptions(int Argc, const char *const *Argv,
                                              CommandLine &Cli);

/// Prints a title banner and the scale note.
void printBanner(const std::string &Title, const BenchOptions &Options);

/// Renders \p Out per the --csv choice.
void renderTable(const Table &Out, const BenchOptions &Options,
                 const std::string &Title = "");

/// Builds the base experiment configuration for a workload under the
/// common options (no caches or paging attached).
ExperimentConfig baseConfig(WorkloadId Workload, const BenchOptions &Options);

/// Captures the record stream of gs-small under FirstFit with the common
/// options, the stream the two gate benches replay: runExperiment with a
/// RecordTap on the bus, so the driver's spans arrive as it emits them.
std::vector<MemAccess> captureGsSmallStream(const BenchOptions &Options);

/// Formats a fault rate the way the paper's log-scale figures label it.
std::string formatRate(double Value);

/// A matrix of \p Workloads x PaperAllocators under the common options
/// (Base = baseConfig; no caches or paging; workload-salted seeds).
MatrixSpec paperSpec(const std::vector<WorkloadId> &Workloads,
                     const BenchOptions &Options);

/// Memory sizes (KB) at which Figures 2 (GhostScript) and 3 (PTC) sample
/// the page-fault curve.
inline const std::vector<uint32_t> Fig2MemoryKb = {
    256, 512, 768, 1024, 1536, 2048, 2560, 3072, 3584, 4096, 5120, 6144, 8192};
inline const std::vector<uint32_t> Fig3MemoryKb = {
    128, 256, 512, 768, 1024, 1536, 2048, 2560, 3072, 3584, 4096, 5120};

/// The one store every paper artifact but Table 6 reads: the five
/// applications (first, in PaperWorkloads order) plus gs-small and
/// gs-medium x PaperAllocators, the direct-mapped paperCacheSweep() and the
/// page-fault curve at every Figure 2 and 3 memory size.
MatrixSpec paperStoreSpec(const BenchOptions &Options);

/// Table 6's sibling of paperStoreSpec: GNU LOCAL with emulated boundary
/// tags on the five applications and the 64K cache. The applications keep
/// their ordinals, so each cell replays the request stream of the store's
/// GNU LOCAL cell for the same application.
MatrixSpec tagsStoreSpec(const BenchOptions &Options);

/// Runs \p Spec through the MatrixRunner at Options.Jobs workers. Exports
/// the store to <out-json>.<Name>.json and its telemetry to
/// <out-telemetry-json>.<Name>.json when those flags are set, and dies
/// with the cell's attribution if any cell fails (the bench sweeps have no
/// legitimately failing cells). Index the store with at(W, A, P).
ResultStore runBenchMatrix(const MatrixSpec &Spec, const std::string &Name,
                           const BenchOptions &Options);

} // namespace allocsim

#endif // ALLOCSIM_BENCH_BENCHCOMMON_H
