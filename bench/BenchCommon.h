//===- bench/BenchCommon.h - Shared benchmark harness pieces ----*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flag handling and formatting shared by the per-table/per-figure
/// benchmark binaries. Every binary accepts:
///
///   --scale N      divide the paper's allocation counts by N (default 8;
///                  workloads that cannot be scaled without shrinking their
///                  live heap, like PTC, are clamped automatically)
///   --seed S       workload RNG seed
///   --csv          emit CSV instead of aligned text
///   --jobs N       MatrixRunner worker threads for the sweep benches
///                  (0 = all hardware threads; results are bit-identical
///                  at any job count)
///   --out-json P   also export the full experiment matrix as JSON to P
///
/// and prints the paper artifact it regenerates, alongside the paper's
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
  /// When non-empty, matrix-backed benches also export their full
  /// ResultStore as JSON to this path.
  std::string OutJson;
  /// Telemetry probe level for every run (off keeps the paper numbers
  /// bit-identical; summary/full add counters/histograms to the export).
  TelemetryLevel Telemetry = TelemetryLevel::Off;
  /// When non-empty, matrix-backed benches also export per-cell + merged
  /// telemetry ("allocsim-telemetry-v1") to this path.
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

/// Formats a fault rate the way the paper's log-scale figures label it.
std::string formatRate(double Value);

/// Runs \p Workloads x PaperAllocators through the MatrixRunner at
/// Options.Jobs workers, with every cell observing all of \p Caches.
/// Exports the matrix to Options.OutJson when set, and dies with the
/// cell's attribution if any cell fails (the paper sweeps have no
/// legitimately failing cells). Index the store with at(W, A).
ResultStore runBenchMatrix(const std::vector<WorkloadId> &Workloads,
                           const std::vector<CacheConfig> &Caches,
                           const BenchOptions &Options);

/// Runs the Figure 4/5 and Table 4/5 study: every paper workload under
/// every paper allocator with one direct-mapped cache of \p CacheKb,
/// through the MatrixRunner (parallel across cells, deterministic).
/// Returns Results[workload][allocator] in PaperWorkloads/PaperAllocators
/// order.
std::vector<std::vector<RunResult>> runTimeStudy(uint32_t CacheKb,
                                                 const BenchOptions &Options);

/// Emits the Figure 4/5 artifact: per-application execution time
/// normalized to FirstFit, base (instructions only) and total (with the
/// 25-cycle miss penalty), plus the miss share of execution time.
void emitNormalizedTimeStudy(uint32_t CacheKb, const BenchOptions &Options);

/// Paper reference entry for emitTimeTable (see PaperData.h).
struct PaperTime;

/// Emits the Table 4/5 artifact: estimated total seconds and miss seconds
/// per application and allocator, next to the paper's published values.
void emitTimeTable(uint32_t CacheKb, const PaperTime Paper[5][5],
                   const BenchOptions &Options);

/// Runs a Figure 2/3-style page-fault study: one workload under all five
/// allocators, printing faults-per-reference at each memory size, plus the
/// per-allocator total heap ("total amount of memory requested by the
/// program", the paper's x-axis end symbols).
void runPageFaultFigure(WorkloadId Workload,
                        const std::vector<uint32_t> &MemoryKb,
                        const BenchOptions &Options);

} // namespace allocsim

#endif // ALLOCSIM_BENCH_BENCHCOMMON_H
