//===- bench/bench_ext_penalty_sweep.cpp - Miss-penalty extension ---------===//
//
// Extension of the paper's Section 4.4 remark: "In the future, if cache
// miss penalties increase dramatically, the added CPU overhead required to
// obtain the marginal increase in locality [GNU LOCAL's] may then be
// warranted." (Jouppi's projection of 100+-cycle misses is cited in the
// introduction.)
//
// This benchmark sweeps the miss penalty from 10 to 200 cycles on one
// workload with a 64K cache and reports each allocator's estimated
// execution time, exposing the crossover where GNU LOCAL's low miss rate
// overtakes the instruction-lean allocators.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace allocsim;

int main(int Argc, char **Argv) {
  CommandLine Cli;
  Cli.addFlag("workload", "gs", "application profile to run");
  std::optional<BenchOptions> Options = parseBenchOptions(Argc, Argv, Cli);
  if (!Options)
    return 1;
  WorkloadId Workload = parseWorkload(Cli.getString("workload"));
  printBanner("Extension: estimated seconds vs miss penalty on " +
                  std::string(workloadName(Workload)) + ", 64K cache",
              *Options);

  // The penalty only rescales the time estimate, so the matrix simulates
  // each allocator once and projects it onto every penalty.
  MatrixSpec Spec = paperSpec({Workload}, *Options);
  Spec.PenaltiesCycles = {10, 25, 50, 100, 150, 200};
  Spec.Caches = {CacheConfig{64 * 1024, 32, 1}};
  ResultStore Store = runBenchMatrix(Spec, "penalty", *Options);

  std::vector<std::string> Headers = {"penalty (cycles)"};
  for (AllocatorKind Allocator : PaperAllocators)
    Headers.emplace_back(allocatorKindName(Allocator));
  Table Out(Headers);
  for (size_t P = 0; P != Spec.PenaltiesCycles.size(); ++P) {
    Out.beginRow();
    Out.num(uint64_t(Spec.PenaltiesCycles[P]));
    for (size_t A = 0; A != 5; ++A)
      Out.num(Store.at(0, A, P).Result.estimatedSeconds(0), 2);
  }
  renderTable(Out, *Options, "estimated seconds at run scale");
  return 0;
}
