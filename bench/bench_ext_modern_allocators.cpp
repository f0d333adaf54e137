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
// 16K and 64K caches. The paper's five allocators run alongside as the
// reference columns, out of the same MatrixRunner sweep (--jobs workers;
// bit-identical at any job count; --out-json exports every cell).
//
// Shapes to reproduce: BITMAPFIT clusters with the segregated allocators
// (below both sequential fits at every cache size) and searches an order of
// magnitude fewer blocks than SPACEFIT; SPACEFIT requests the smallest heap
// of the sequential family but pays for its sorted-list walks in
// instruction share and estimated seconds.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace allocsim;

int main(int Argc, char **Argv) {
  CommandLine Cli;
  std::optional<BenchOptions> Options = parseBenchOptions(Argc, Argv, Cli);
  if (!Options)
    return 1;
  printBanner("Extension: modern backends (BITMAPFIT, SPACEFIT) in the "
              "paper's miss-rate and execution-time studies",
              *Options);

  std::vector<AllocatorKind> Allocators(PaperAllocators, PaperAllocators + 5);
  Allocators.push_back(AllocatorKind::BitmapFit);
  Allocators.push_back(AllocatorKind::SpaceFit);

  // Part one: Figure 6/7-style miss-rate columns, GS small and medium
  // inputs, direct-mapped 16K..256K.
  MatrixSpec MissSpec =
      paperSpec({WorkloadId::GsSmall, WorkloadId::GsMedium}, *Options);
  MissSpec.Allocators = Allocators;
  MissSpec.Caches = paperCacheSweep();
  const std::vector<CacheConfig> &Sweep = MissSpec.Caches;
  ResultStore MissStore = runBenchMatrix(MissSpec, "missrate", *Options);
  const char *Figures[] = {"Figure 6 + moderns (GS-Small)",
                           "Figure 7 + moderns (GS-Medium)"};
  for (size_t In = 0; In != 2; ++In) {
    std::vector<std::string> Headers = {"cache KB"};
    for (AllocatorKind Allocator : Allocators)
      Headers.emplace_back(allocatorKindName(Allocator));
    Table Out(Headers);
    for (size_t CacheIdx = 0; CacheIdx != Sweep.size(); ++CacheIdx) {
      Out.beginRow();
      Out.num(uint64_t(Sweep[CacheIdx].SizeBytes / 1024));
      for (size_t A = 0; A != Allocators.size(); ++A)
        Out.num(100.0 *
                    MissStore.at(In, A).Result.Caches[CacheIdx].Stats
                        .missRate(),
                2);
    }
    renderTable(Out, *Options,
                std::string(Figures[In]) + ": miss rate (%)");
  }

  // Part two: Table 4/5-style estimated seconds at 16K and 64K, plus the
  // allocation-policy costs that explain them.
  MatrixSpec TimeSpec =
      paperSpec({WorkloadId::Espresso, WorkloadId::Make}, *Options);
  TimeSpec.Allocators = Allocators;
  TimeSpec.Caches = {CacheConfig{16 * 1024, 32, 1},
                     CacheConfig{64 * 1024, 32, 1}};
  ResultStore TimeStore = runBenchMatrix(TimeSpec, "exectime", *Options);
  const WorkloadId TimeWorkloads[] = {WorkloadId::Espresso, WorkloadId::Make};
  for (size_t W = 0; W != 2; ++W) {
    WorkloadEngine Engine(getProfile(TimeWorkloads[W]),
                          baseConfig(TimeWorkloads[W], *Options).Engine);
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
                    workloadName(TimeWorkloads[W]) +
                    "): estimated seconds, 25 MHz, scaled to paper volume");
  }
  return 0;
}
