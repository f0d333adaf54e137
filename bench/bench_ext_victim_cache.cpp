//===- bench/bench_ext_victim_cache.cpp - Victim-cache extension ----------===//
//
// Extension motivated by the paper's introduction, which cites Jouppi's
// victim-cache work as the architecture community's response to rising
// miss penalties: how much of each allocator's miss rate on a direct-
// mapped cache is *conflict* structure that a tiny fully-associative
// victim buffer absorbs?
//
// Expected shape: the buffer helps every allocator but cannot rescue
// FIRSTFIT, whose misses are capacity/scatter misses from freelist scans
// rather than conflicts; the dense allocators (GnuLocal, BSD) lose a
// larger *fraction* of their misses to the buffer.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "workload/Driver.h"

using namespace allocsim;

int main(int Argc, char **Argv) {
  CommandLine Cli;
  Cli.addFlag("workload", "espresso", "application profile to run");
  Cli.addFlag("cache-kb", "16", "main-array size in KB");
  std::optional<BenchOptions> Options = parseBenchOptions(Argc, Argv, Cli);
  if (!Options)
    return 1;
  WorkloadId Workload = parseWorkload(Cli.getString("workload"));
  auto CacheKb = static_cast<uint32_t>(Cli.getInt("cache-kb"));
  printBanner("Extension: victim buffers (Jouppi) on " +
                  std::string(workloadName(Workload)) + ", " +
                  std::to_string(CacheKb) + "K direct-mapped main array",
              *Options);

  const uint32_t BufferSizes[] = {1, 4, 15};
  Table Out({"allocator", "plain miss %", "+1 entry", "+4 entries",
             "+15 entries", "absorbed % (4)"});

  for (AllocatorKind Kind : PaperAllocators) {
    // One execution observed by the plain cache and all buffer variants.
    MemoryBus Bus;
    CacheConfig MainArray{CacheKb * 1024, 32, 1};
    DirectMappedCache Plain(MainArray);
    Bus.attach(&Plain);
    std::vector<std::unique_ptr<VictimCache>> Buffered;
    for (uint32_t Entries : BufferSizes) {
      Buffered.push_back(std::make_unique<VictimCache>(MainArray, Entries));
      Bus.attach(Buffered.back().get());
    }

    SimHeap Heap(Bus);
    CostModel Cost;
    std::unique_ptr<Allocator> Alloc = createAllocator(Kind, Heap, Cost);
    const AppProfile &Profile = getProfile(Workload);
    EngineOptions EngineOpts;
    EngineOpts.Scale = Options->Scale;
    EngineOpts.Seed = Options->Seed;
    WorkloadEngine Engine(Profile, EngineOpts);
    Driver Drive(*Alloc, Bus, Cost, Profile.instrPerRef());
    Engine.generate([&](const AllocEvent &Event) { Drive.execute(Event); });
    Bus.flush();

    Out.beginRow();
    Out.cell(allocatorKindName(Kind));
    Out.num(100.0 * Plain.stats().missRate(), 2);
    for (const auto &Cache : Buffered)
      Out.num(100.0 * Cache->stats().missRate(), 2);
    double Absorbed =
        Plain.stats().Misses == 0
            ? 0.0
            : 100.0 * static_cast<double>(Buffered[1]->victimHits()) /
                  static_cast<double>(Plain.stats().Misses);
    Out.num(Absorbed, 1);
  }
  renderTable(Out, *Options, "miss rate (%) with victim buffers");
  return 0;
}
