//===- tools/allocsim_workload_tool.cpp - Event-script generation/replay --===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// Utility over the allocation-event script format (the allocator-agnostic
// record of a program's malloc/free/touch behaviour):
//
//   allocsim_workload_tool gen <workload> <script-out> [scale]
//       synthesize a workload and save its event script
//   allocsim_workload_tool check <script>
//       validate a script's well-formedness and summarize it
//   allocsim_workload_tool run <script> <allocator> [cacheKB...]
//       replay a script against an allocator and report miss rates
//
// Scripts let one captured behaviour be replayed against every allocator —
// the same control the paper got by tracing one execution per application.
//
//===----------------------------------------------------------------------===//

#include "alloc/Allocator.h"
#include "cache/CacheSim.h"
#include "support/Error.h"
#include "support/Table.h"
#include "trace/AllocEvents.h"
#include "workload/Driver.h"
#include "workload/Engine.h"

#include <fstream>
#include <iostream>

using namespace allocsim;

namespace {

int usage() {
  std::cerr
      << "usage: allocsim_workload_tool gen <workload> <script-out> [scale]\n"
         "       allocsim_workload_tool check <script>\n"
         "       allocsim_workload_tool run <script> <allocator> [KB...]\n";
  return 1;
}

std::vector<AllocEvent> loadScript(const std::string &Path) {
  std::ifstream File(Path);
  if (!File)
    reportFatalError("cannot open script '" + Path + "'");
  return readAllocEvents(File);
}

int runGen(const std::string &Workload, const std::string &OutPath,
           uint32_t Scale) {
  EngineOptions Options;
  Options.Scale = Scale;
  WorkloadEngine Engine(getProfile(parseWorkload(Workload)), Options);

  std::ofstream OutFile(OutPath);
  if (!OutFile)
    reportFatalError("cannot write '" + OutPath + "'");
  uint64_t Count = 0;
  Engine.generate([&](const AllocEvent &Event) {
    writeAllocEvents(OutFile, {Event});
    ++Count;
  });
  std::cerr << "wrote " << Count << " events ("
            << Engine.totalAllocations() << " allocations, scale 1/"
            << Engine.effectiveScale() << ") to " << OutPath << "\n";
  return 0;
}

int runCheck(const std::string &Path) {
  std::vector<AllocEvent> Events = loadScript(Path);
  std::string Why;
  if (!validateAllocEvents(Events, &Why)) {
    std::cerr << "INVALID: " << Why << "\n";
    return 1;
  }
  uint64_t Mallocs = 0, Frees = 0, TouchWords = 0, StackWords = 0;
  uint64_t Bytes = 0;
  for (const AllocEvent &Event : Events) {
    switch (Event.Kind) {
    case AllocEventKind::Malloc:
      ++Mallocs;
      Bytes += Event.Amount;
      break;
    case AllocEventKind::Free:
      ++Frees;
      break;
    case AllocEventKind::Touch:
      TouchWords += Event.Amount;
      break;
    case AllocEventKind::StackTouch:
      StackWords += Event.Amount;
      break;
    }
  }
  std::cout << "valid script: " << Events.size() << " events\n"
            << "  mallocs:      " << Mallocs << " (" << Bytes << " bytes)\n"
            << "  frees:        " << Frees << "\n"
            << "  surviving:    " << Mallocs - Frees << "\n"
            << "  touch words:  " << TouchWords << "\n"
            << "  stack words:  " << StackWords << "\n";
  return 0;
}

int runScript(const std::string &Path, const std::string &AllocName,
              const std::vector<uint32_t> &SizesKb) {
  std::vector<AllocEvent> Events = loadScript(Path);

  MemoryBus Bus;
  CacheBank Bank;
  for (uint32_t SizeKb : SizesKb)
    Bank.addCache(CacheConfig{SizeKb * 1024, 32, 1});
  Bus.attach(&Bank);
  SimHeap Heap(Bus);
  CostModel Cost;
  std::unique_ptr<Allocator> Alloc =
      createAllocator(parseAllocatorKind(AllocName), Heap, Cost);
  Driver Drive(*Alloc, Bus, Cost, /*InstrPerRef=*/3.5);
  for (const AllocEvent &Event : Events)
    Drive.execute(Event);
  Bus.flush();

  std::cout << "allocator " << Alloc->name() << ": "
            << Alloc->stats().MallocCalls << " mallocs, heap "
            << Alloc->heapBytes() / 1024 << " KB, "
            << Bus.totalAccesses() << " refs, malloc+free "
            << formatDouble(100.0 * Cost.allocFraction(), 1)
            << "% of instructions\n\n";
  Table Out({"cache", "miss rate %"});
  for (size_t I = 0; I != Bank.size(); ++I) {
    Out.beginRow();
    Out.cell(Bank.cache(I).config().describe());
    Out.num(100.0 * Bank.cache(I).stats().missRate(), 3);
  }
  Out.renderText(std::cout);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  std::string Command = Argv[1];
  if (Command == "gen") {
    if (Argc < 4)
      return usage();
    uint32_t Scale = Argc > 4
                         ? static_cast<uint32_t>(std::atoi(Argv[4]))
                         : 64;
    return runGen(Argv[2], Argv[3], Scale == 0 ? 64 : Scale);
  }
  if (Command == "check")
    return runCheck(Argv[2]);
  if (Command == "run") {
    if (Argc < 4)
      return usage();
    std::vector<uint32_t> SizesKb;
    for (int I = 4; I < Argc; ++I)
      SizesKb.push_back(static_cast<uint32_t>(std::atoi(Argv[I])));
    if (SizesKb.empty())
      SizesKb = {16, 64};
    return runScript(Argv[2], Argv[3], SizesKb);
  }
  return usage();
}
