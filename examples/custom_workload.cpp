//===- examples/custom_workload.cpp - Defining your own workload ----------===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// AppProfile is a public extension point: any allocation-intensive program
// can be modeled by filling in its statistics and size mix. This example
// defines a workload from scratch — a hypothetical JSON-ish parser that
// builds a large document tree (many small nodes, string buffers, rare big
// arrays; most nodes live until whole subtrees are dropped) — and runs it
// through the standard allocator comparison without touching the library.
//
// It also demonstrates the built-in extension workload "cfrac" (the sixth
// program of the authors' companion study).
//
// Usage: custom_workload [--scale 8]
//
//===----------------------------------------------------------------------===//

#include "core/Lab.h"
#include "support/CommandLine.h"
#include "support/Table.h"
#include "workload/Driver.h"

#include <iostream>

using namespace allocsim;

namespace {

/// A user-defined profile: nothing about it is known to the library.
AppProfile jsonParserProfile() {
  AppProfile Profile;
  Profile.Name = "json-parser";
  // Invent the program's vital statistics the way a user would measure
  // them with an allocator hook: ~600M instructions, ~170M data refs,
  // 2 MB document tree, 800K allocations of which 700K are freed when
  // subtrees are discarded.
  Profile.PaperInstrMillions = 600;
  Profile.PaperDataRefsMillions = 170;
  Profile.PaperMaxHeapKb = 2048;
  Profile.PaperObjectsAllocated = 800000;
  Profile.PaperObjectsFreed = 700000;
  Profile.PaperSeconds = 24.0;
  Profile.SizeMix = {
      {16, 16, 0.30},        // value nodes
      {24, 24, 0.25},        // object entries
      {32, 32, 0.15},        // array headers
      {40, 120, 0.22, 8},    // short strings
      {256, 2048, 0.07, 256}, // long strings
      {4096, 16384, 0.01, 4096}, // scratch buffers
  };
  Profile.DieYoungProb = 0.55;      // scratch dies young...
  Profile.ClusterDeathProb = 0.60;  // ...subtrees die together
  Profile.StackRefShare = 0.50;
  Profile.TraverseWriteShare = 0.20;
  return Profile;
}

/// Runs one profile against an allocator and returns the headline numbers.
struct Headline {
  double AllocPct;
  double MissPct;
  uint32_t HeapKb;
};

Headline runOne(const AppProfile &Profile, AllocatorKind Kind,
                uint32_t Scale) {
  MemoryBus Bus;
  DirectMappedCache Cache({64 * 1024, 32, 1});
  Bus.attach(&Cache);
  SimHeap Heap(Bus);
  CostModel Cost;
  std::unique_ptr<Allocator> Alloc = createAllocator(Kind, Heap, Cost);

  EngineOptions Options;
  Options.Scale = Scale;
  WorkloadEngine Engine(Profile, Options);
  Driver Drive(*Alloc, Bus, Cost, Profile.instrPerRef());
  Engine.generate([&](const AllocEvent &Event) { Drive.execute(Event); });
  Bus.flush();

  return {100.0 * Cost.allocFraction(), 100.0 * Cache.stats().missRate(),
          Alloc->heapBytes() / 1024};
}

void runSuite(const AppProfile &Profile, uint32_t Scale) {
  std::cout << "--- " << Profile.Name << " (mean request "
            << static_cast<int>(Profile.meanRequestBytes())
            << " B, free fraction "
            << formatDouble(Profile.freeFraction(), 2) << ") ---\n";
  Table Out({"allocator", "malloc+free %", "miss % 64K", "heap KB"});
  for (AllocatorKind Kind : PaperAllocators) {
    Headline Result = runOne(Profile, Kind, Scale);
    Out.beginRow();
    Out.cell(allocatorKindName(Kind));
    Out.num(Result.AllocPct, 1);
    Out.num(Result.MissPct, 2);
    Out.num(uint64_t(Result.HeapKb));
  }
  Out.renderText(std::cout);
  std::cout << "\n";
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Cli;
  Cli.addFlag("scale", "8", "divide workload allocation counts by this");
  if (!Cli.parse(Argc, Argv))
    return 1;
  auto Scale = static_cast<uint32_t>(Cli.getInt("scale"));

  runSuite(jsonParserProfile(), Scale);
  runSuite(getProfile(WorkloadId::Cfrac), Scale);
  return 0;
}
