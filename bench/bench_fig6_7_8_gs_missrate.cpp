//===- bench/bench_fig6_7_8_gs_missrate.cpp - Paper Figures 6, 7, 8 -------===//
//
// Regenerates Figures 6, 7 and 8: data-cache miss rate for GhostScript's
// three input sets (GS-Small, GS-Medium, GS-Large) as the direct-mapped
// cache grows from 16K to 256K, for all five allocators.
//
// The whole 3-input x 5-allocator study runs as one MatrixRunner sweep
// (--jobs workers; results are bit-identical at any job count) and exports
// to JSON with --out-json.
//
// Shapes to reproduce: FIRSTFIT's miss rate is the highest for every input
// set and cache size, with GNU G++ second; the rest form a close cluster
// whose internal order shifts with the input set; differences are muted for
// the small input.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace allocsim;

int main(int Argc, char **Argv) {
  CommandLine Cli;
  std::optional<BenchOptions> Options = parseBenchOptions(Argc, Argv, Cli);
  if (!Options)
    return 1;
  printBanner("Figures 6/7/8: GhostScript data-cache miss rate vs cache size "
              "(direct-mapped, 32B blocks)",
              *Options);

  struct Input {
    WorkloadId Workload;
    const char *Figure;
  };
  const Input Inputs[] = {{WorkloadId::GsSmall, "Figure 6 (GS-Small)"},
                          {WorkloadId::GsMedium, "Figure 7 (GS-Medium)"},
                          {WorkloadId::Gs, "Figure 8 (GS-Large)"}};

  const std::vector<CacheConfig> Caches = paperCacheSweep();
  ResultStore Store = runBenchMatrix(
      {Inputs[0].Workload, Inputs[1].Workload, Inputs[2].Workload}, Caches,
      *Options);

  for (size_t In = 0; In != 3; ++In) {
    std::vector<std::string> Headers = {"cache KB"};
    for (AllocatorKind Allocator : PaperAllocators)
      Headers.emplace_back(allocatorKindName(Allocator));
    Table Out(Headers);
    for (size_t CacheIdx = 0; CacheIdx != Caches.size(); ++CacheIdx) {
      Out.beginRow();
      Out.num(uint64_t(Caches[CacheIdx].SizeBytes / 1024));
      for (size_t A = 0; A != 5; ++A)
        Out.num(100.0 * Store.at(In, A).Result.Caches[CacheIdx].Stats
                            .missRate(),
                2);
    }
    renderTable(Out, *Options,
                std::string(Inputs[In].Figure) + ": miss rate (%)");
  }
  return 0;
}
