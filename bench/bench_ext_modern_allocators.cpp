//===- bench/bench_ext_modern_allocators.cpp - Modern-backend cells -------===//
//
// Extension of the paper's Figures 6-8 and Tables 4-5 with the two modern
// CacheLab backends from PAPERS.md:
//
//   * BITMAPFIT — cache-line-bucketed bitmap allocator (Matani & Menghani
//     2021): same-class objects pack into aligned 4K slabs whose only
//     metadata is one header line, searched a word at a time;
//   * SPACEFIT — head-first best fit over a size-sorted freelist with
//     space-fitting splits (Hakarsa 2024): space-optimal placement at full
//     sequential-fit search cost.
//
// Part one regenerates the Figure 6/7-style miss-rate-vs-cache-size cells
// for GhostScript's small and medium inputs; part two the Table 4/5-style
// estimated execution seconds for the allocation-heavy espresso and make at
// 16K and 64K caches. Both are the matrices the missrate and exectime
// conformance suites gate (conform/Conformance.h), so the paper's five
// allocators (and, in part one, Custom) run alongside as reference
// columns out of the same MatrixRunner sweep (--jobs workers; bit-identical
// at any job count; --out-json exports every cell).
//
// Shapes to reproduce: BITMAPFIT clusters with the segregated allocators
// (below both sequential fits at every cache size) and searches an order of
// magnitude fewer blocks than SPACEFIT; SPACEFIT requests the smallest heap
// of the sequential family but pays for its sorted-list walks in
// instruction share and estimated seconds.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "conform/Conformance.h"

using namespace allocsim;

int main(int Argc, char **Argv) {
  CommandLine Cli;
  std::optional<BenchOptions> Options = parseBenchOptions(Argc, Argv, Cli);
  if (!Options)
    return 1;
  printBanner("Extension: modern backends (BITMAPFIT, SPACEFIT) in the "
              "paper's miss-rate and execution-time studies",
              *Options);

  // Part one: Figure 6/7-style miss-rate columns, GS small and medium
  // inputs, direct-mapped 16K..256K.
  MatrixSpec MissSpec = missRateSuiteSpec();
  MissSpec.Base = baseConfig(MissSpec.Workloads.front(), *Options);
  const std::vector<CacheConfig> &Sweep = MissSpec.Caches;
  ResultStore MissStore = runBenchMatrix(MissSpec, "missrate", *Options);
  const char *Figures[] = {"Figure 6 + moderns (GS-Small)",
                           "Figure 7 + moderns (GS-Medium)"};
  for (size_t In = 0; In != 2; ++In) {
    std::vector<std::string> Headers = {"cache KB"};
    for (AllocatorKind Allocator : MissSpec.Allocators)
      Headers.emplace_back(allocatorKindName(Allocator));
    Table Out(Headers);
    for (size_t CacheIdx = 0; CacheIdx != Sweep.size(); ++CacheIdx) {
      Out.beginRow();
      Out.num(uint64_t(Sweep[CacheIdx].SizeBytes / 1024));
      for (size_t A = 0; A != MissSpec.Allocators.size(); ++A)
        Out.num(100.0 *
                    MissStore.at(In, A).Result.Caches[CacheIdx].Stats
                        .missRate(),
                2);
    }
    renderTable(Out, *Options,
                std::string(Figures[In]) + ": miss rate (%)");
  }

  // Part two: Table 4/5-style estimated seconds at 16K and 64K, plus the
  // allocation-policy costs that explain them, read at the first penalty
  // (25 cycles; the 100-cycle cells are in the --out-json export).
  MatrixSpec TimeSpec = execTimeSuiteSpec();
  TimeSpec.Base = baseConfig(TimeSpec.Workloads.front(), *Options);
  const std::vector<AllocatorKind> &Allocators = TimeSpec.Allocators;
  ResultStore TimeStore = runBenchMatrix(TimeSpec, "exectime", *Options);
  for (size_t W = 0; W != TimeSpec.Workloads.size(); ++W) {
    WorkloadId Workload = TimeSpec.Workloads[W];
    WorkloadEngine Engine(getProfile(Workload),
                          baseConfig(Workload, *Options).Engine);
    double Scale = Engine.effectiveScale();
    Table Out({"allocator", "sec 16K (total/miss)", "sec 64K (total/miss)",
               "scan/op", "malloc+free %", "heap KB"});
    for (size_t A = 0; A != Allocators.size(); ++A) {
      const RunResult &Run = TimeStore.at(W, A).Result;
      Out.beginRow();
      Out.cell(allocatorKindName(Allocators[A]));
      for (size_t CacheIdx = 0; CacheIdx != 2; ++CacheIdx)
        Out.cell(
            formatDouble(Run.Caches[CacheIdx].Time.seconds() * Scale, 2) +
            "/" +
            formatDouble(Run.Caches[CacheIdx].Time.missSeconds() * Scale,
                         2));
      Out.num(double(Run.BlocksSearched) / double(Run.Alloc.MallocCalls), 1);
      Out.num(100.0 * Run.allocInstrFraction(), 1);
      Out.num(uint64_t(Run.HeapBytes / 1024));
    }
    renderTable(Out, *Options,
                std::string("Tables 4-5 + moderns (") +
                    workloadName(Workload) +
                    "): estimated seconds, 25 MHz, scaled to paper volume");
  }
  return 0;
}
