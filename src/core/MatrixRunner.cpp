//===- core/MatrixRunner.cpp - Parallel experiment-matrix engine ----------===//

#include "core/MatrixRunner.h"

#include "support/Diag.h"
#include "support/Rng.h"
#include "support/SpecParse.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <thread>

using namespace allocsim;

//===----------------------------------------------------------------------===//
// Expansion
//===----------------------------------------------------------------------===//

namespace {

/// Seed for workload ordinal \p WorkloadIdx: decorrelated across workloads,
/// identical across allocators and penalties, independent of scheduling.
uint64_t cellSeed(const MatrixSpec &Spec, size_t WorkloadIdx) {
  SplitMix64 Mix(Spec.Base.Engine.Seed +
                 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(WorkloadIdx));
  return Mix.next();
}

/// Returns a description of what makes \p Config's simulation unrunnable,
/// or "" if it is sound. The miss penalty is not checked here: it only
/// scales the time estimate, so projectPenalty validates it per cell.
/// Validation failures become recorded cell errors, not aborts.
std::string validateCellConfig(const ExperimentConfig &Config) {
  for (const CacheConfig &Cache : Config.Caches)
    if (!Cache.valid())
      return "invalid cache geometry '" + Cache.describe() + "'";
  // Duplicate geometries would double-count in sweep output; the cache
  // layer treats them as fatal, so diagnose here where a cell can fail
  // gracefully instead.
  for (size_t I = 0; I != Config.Caches.size(); ++I)
    for (size_t J = 0; J != I; ++J)
      if (Config.Caches[J] == Config.Caches[I])
        return "duplicate cache geometry '" + Config.Caches[I].describe() +
               "'";
  if (Config.Engine.Scale == 0)
    return "engine scale must be positive";
  for (uint32_t MemoryKb : Config.PagingMemoryKb)
    if (MemoryKb == 0)
      return "paging memory size must be positive";
  return "";
}

} // namespace

std::vector<MatrixCell> allocsim::expandMatrix(const MatrixSpec &Spec) {
  std::vector<MatrixCell> Cells;
  Cells.reserve(Spec.cellCount());
  for (size_t W = 0; W != Spec.Workloads.size(); ++W)
    for (size_t A = 0; A != Spec.Allocators.size(); ++A)
      for (size_t P = 0; P != Spec.PenaltiesCycles.size(); ++P) {
        MatrixCell Cell;
        Cell.Coord = {Cells.size(), W, A, P};
        Cell.Config = Spec.Base;
        Cell.Config.Workload = Spec.Workloads[W];
        Cell.Config.Allocator = Spec.Allocators[A];
        Cell.Config.MissPenaltyCycles = Spec.PenaltiesCycles[P];
        Cell.Config.Caches = Spec.Caches;
        Cell.Config.PagingMemoryKb = Spec.PagingMemoryKb;
        Cell.Config.Engine.Seed = cellSeed(Spec, W);
        if (Spec.Base.Inject.enabled()) {
          // Fault seed, fixed at expansion from the (workload, allocator)
          // pair ordinal: fault sites are decorrelated across pairs yet
          // bit-identical at any job count, like the workload seeds above.
          // Penalty siblings share the seed because they share one
          // simulation (see runMatrix); with one penalty the ordinal is
          // the linear index.
          SplitMix64 Mix(Spec.Base.Inject.Seed +
                         0x9e3779b97f4a7c15ULL *
                             static_cast<uint64_t>(
                                 W * Spec.Allocators.size() + A));
          Cell.Config.Inject.Seed = Mix.next();
        }
        Cells.push_back(std::move(Cell));
      }
  return Cells;
}

//===----------------------------------------------------------------------===//
// ResultStore
//===----------------------------------------------------------------------===//

ResultStore::ResultStore(const MatrixSpec &StoreSpec)
    : Spec(StoreSpec), Cells(StoreSpec.cellCount()) {}

const CellOutcome &ResultStore::at(size_t WorkloadIdx, size_t AllocatorIdx,
                                   size_t PenaltyIdx) const {
  size_t Index = (WorkloadIdx * Spec.Allocators.size() + AllocatorIdx) *
                     Spec.PenaltiesCycles.size() +
                 PenaltyIdx;
  return Cells.at(Index);
}

size_t ResultStore::failedCount() const {
  size_t Failed = 0;
  for (const CellOutcome &Cell : Cells)
    if (!Cell.Ok)
      ++Failed;
  return Failed;
}

void ResultStore::put(size_t Index, CellOutcome Outcome) {
  Cells.at(Index) = std::move(Outcome);
}

namespace {

std::string jsonDouble(double Value) {
  char Buffer[40];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
  return Buffer;
}

void writeCacheConfigJson(std::ostream &OS, const CacheConfig &Config) {
  OS << "{\"size_kb\": " << Config.SizeBytes / 1024
     << ", \"block_bytes\": " << Config.BlockBytes
     << ", \"assoc\": " << Config.Assoc << "}";
}

/// Shared body for writeJson / writeGoldenJson; \p WithDoubles controls
/// whether derived floating-point values (miss rates, time estimates,
/// fault rates) are included — the golden form is integers only so exact
/// equality is meaningful on every platform.
void writeMatrixJson(std::ostream &OS, const MatrixSpec &Spec,
                     const std::vector<CellOutcome> &Cells,
                     bool WithDoubles) {
  OS << "{\n";
  OS << "  \"schema\": \"allocsim-matrix-v1\",\n";
  OS << "  \"golden\": " << (WithDoubles ? "false" : "true") << ",\n";

  OS << "  \"axes\": {\n    \"workloads\": [";
  for (size_t I = 0; I != Spec.Workloads.size(); ++I)
    OS << (I ? ", " : "") << '"' << workloadName(Spec.Workloads[I]) << '"';
  OS << "],\n    \"allocators\": [";
  for (size_t I = 0; I != Spec.Allocators.size(); ++I)
    OS << (I ? ", " : "") << '"' << allocatorKindName(Spec.Allocators[I])
       << '"';
  OS << "],\n    \"penalties_cycles\": [";
  for (size_t I = 0; I != Spec.PenaltiesCycles.size(); ++I)
    OS << (I ? ", " : "") << Spec.PenaltiesCycles[I];
  OS << "],\n    \"caches\": [";
  for (size_t I = 0; I != Spec.Caches.size(); ++I) {
    OS << (I ? ", " : "");
    writeCacheConfigJson(OS, Spec.Caches[I]);
  }
  OS << "],\n    \"paging_memory_kb\": [";
  for (size_t I = 0; I != Spec.PagingMemoryKb.size(); ++I)
    OS << (I ? ", " : "") << Spec.PagingMemoryKb[I];
  OS << "]\n  },\n";

  // Seeds are always salted; the field stays as a v1 schema constant.
  OS << "  \"engine\": {\"scale\": " << Spec.Base.Engine.Scale
     << ", \"seed\": " << Spec.Base.Engine.Seed
     << ", \"salt_seed_per_workload\": true},\n";

  // The faults section (plan echo, totals, quarantine) exists only under a
  // fault plan: plan-free output stays byte-identical to pre-FaultLab runs.
  if (Spec.Base.Inject.enabled()) {
    const FaultPlan &Plan = Spec.Base.Inject;
    uint64_t Injected = 0, Detected = 0, SbrkDenied = 0, Dropped = 0;
    for (const CellOutcome &Cell : Cells)
      if (Cell.Ok) {
        Injected += Cell.Result.FaultsInjected;
        Detected += Cell.Result.FaultsDetected;
        SbrkDenied += Cell.Result.SbrkDenied;
        Dropped += Cell.Result.DroppedEvents;
      }
    OS << "  \"faults\": {\n";
    OS << "    \"plan\": \"" << jsonEscaped(Plan.Spec) << "\",\n";
    OS << "    \"seed\": " << Plan.Seed
       << ", \"retry_limit\": " << Plan.RetryLimit << ",\n";
    OS << "    \"injected\": " << Injected << ", \"detected\": " << Detected
       << ", \"sbrk_denied\": " << SbrkDenied
       << ", \"dropped_events\": " << Dropped << ",\n";
    OS << "    \"quarantine\": [";
    bool First = true;
    for (const CellOutcome &Cell : Cells) {
      if (Cell.Ok)
        continue;
      OS << (First ? "\n" : ",\n") << "      {\"workload\": \""
         << workloadName(Cell.Workload) << "\", \"allocator\": \""
         << allocatorKindName(Cell.Allocator)
         << "\", \"penalty_cycles\": " << Cell.PenaltyCycles
         << ", \"attempts\": " << Cell.Attempts << ", \"errors\": [";
      for (size_t E = 0; E != Cell.AttemptErrors.size(); ++E)
        OS << (E ? ", " : "") << '"' << jsonEscaped(Cell.AttemptErrors[E])
           << '"';
      OS << "]}";
      First = false;
    }
    OS << (First ? "" : "\n    ") << "]\n  },\n";
  }

  OS << "  \"cells\": [";
  for (size_t I = 0; I != Cells.size(); ++I) {
    const CellOutcome &Cell = Cells[I];
    OS << (I ? ",\n" : "\n") << "    {";
    OS << "\"workload\": \"" << workloadName(Cell.Workload) << "\", ";
    OS << "\"allocator\": \"" << allocatorKindName(Cell.Allocator) << "\", ";
    OS << "\"penalty_cycles\": " << Cell.PenaltyCycles << ", ";
    OS << "\"seed\": " << Cell.Seed << ", ";
    OS << "\"ok\": " << (Cell.Ok ? "true" : "false");
    if (!Cell.Ok) {
      OS << ", \"error\": \"" << jsonEscaped(Cell.Error) << "\"}";
      continue;
    }
    const RunResult &R = Cell.Result;
    OS << ",\n     \"app_instructions\": " << R.AppInstructions
       << ", \"alloc_instructions\": " << R.AllocInstructions
       << ",\n     \"total_refs\": " << R.TotalRefs
       << ", \"app_refs\": " << R.AppRefs
       << ", \"alloc_refs\": " << R.AllocRefs
       << ", \"tag_refs\": " << R.TagRefs
       << ",\n     \"malloc_calls\": " << R.Alloc.MallocCalls
       << ", \"free_calls\": " << R.Alloc.FreeCalls
       << ", \"bytes_requested\": " << R.Alloc.BytesRequested
       << ", \"max_live_bytes\": " << R.Alloc.MaxLiveBytes
       << ",\n     \"heap_bytes\": " << R.HeapBytes
       << ", \"blocks_searched\": " << R.BlocksSearched
       << ", \"distinct_pages\": " << R.DistinctPages
       << ", \"check_violations\": " << R.CheckViolations;

    if (Spec.Base.Inject.enabled()) {
      OS << ",\n     \"attempts\": " << Cell.Attempts
         << ", \"faults_injected\": " << R.FaultsInjected
         << ", \"faults_detected\": " << R.FaultsDetected
         << ", \"sbrk_denied\": " << R.SbrkDenied
         << ", \"dropped_events\": " << R.DroppedEvents
         << ",\n     \"fault_sites\": [";
      for (size_t F = 0; F != R.Faults.size(); ++F)
        OS << (F ? ", " : "") << "{\"kind\": \""
           << faultKindName(R.Faults[F].Kind)
           << "\", \"op\": " << R.Faults[F].OpIndex
           << ", \"addr\": " << R.Faults[F].Address << ", \"detected\": "
           << (R.Faults[F].Detected ? "true" : "false") << "}";
      OS << "]";
    }

    OS << ",\n     \"caches\": [";
    for (size_t C = 0; C != R.Caches.size(); ++C) {
      const CacheResult &Cache = R.Caches[C];
      OS << (C ? ", " : "") << "{\"size_kb\": "
         << Cache.Config.SizeBytes / 1024
         << ", \"accesses\": " << Cache.Stats.Accesses
         << ", \"misses\": " << Cache.Stats.Misses;
      for (unsigned S = 0; S != NumAccessSources; ++S)
        OS << ", \"misses_" << accessSourceName(AccessSource(S))
           << "\": " << Cache.Stats.MissesBySource[S];
      if (WithDoubles)
        OS << ", \"miss_rate\": " << jsonDouble(Cache.Stats.missRate())
           << ", \"est_seconds\": " << jsonDouble(Cache.Time.seconds());
      OS << "}";
    }
    OS << "]";

    OS << ", \"paging\": [";
    for (size_t P = 0; P != R.Paging.size(); ++P) {
      OS << (P ? ", " : "") << "{\"memory_kb\": " << R.Paging[P].MemoryKb;
      if (WithDoubles)
        OS << ", \"faults_per_ref\": "
           << jsonDouble(R.Paging[P].FaultsPerRef);
      OS << "}";
    }
    OS << "]}";
  }
  OS << "\n  ]\n}\n";
}

} // namespace

void ResultStore::writeJson(std::ostream &OS) const {
  writeMatrixJson(OS, Spec, Cells, /*WithDoubles=*/true);
}

void ResultStore::writeGoldenJson(std::ostream &OS) const {
  writeMatrixJson(OS, Spec, Cells, /*WithDoubles=*/false);
}

void ResultStore::writeCsv(std::ostream &OS) const {
  // Fault columns appear only under a fault plan, keeping plan-free CSV
  // byte-identical to pre-FaultLab output.
  bool WithFaults = Spec.Base.Inject.enabled();
  OS << "workload,allocator,penalty_cycles,ok,error,seed,"
        "app_instructions,alloc_instructions,total_refs,app_refs,"
        "alloc_refs,tag_refs,malloc_calls,free_calls,heap_bytes,"
        "blocks_searched,distinct_pages,";
  if (WithFaults)
    OS << "attempts,faults_injected,faults_detected,sbrk_denied,"
          "dropped_events,";
  OS << "cache_kb,cache_block_bytes,cache_assoc,cache_accesses,"
     << "cache_misses,cache_miss_rate,est_seconds\n";
  for (const CellOutcome &Cell : Cells) {
    std::string Prefix;
    {
      std::string ErrorField = Cell.Error;
      for (char &C : ErrorField)
        if (C == ',' || C == '\n')
          C = ' ';
      const RunResult &R = Cell.Result;
      Prefix = std::string(workloadName(Cell.Workload)) + "," +
               allocatorKindName(Cell.Allocator) + "," +
               std::to_string(Cell.PenaltyCycles) + "," +
               (Cell.Ok ? "1" : "0") + "," + ErrorField + "," +
               std::to_string(Cell.Seed) + "," +
               std::to_string(R.AppInstructions) + "," +
               std::to_string(R.AllocInstructions) + "," +
               std::to_string(R.TotalRefs) + "," + std::to_string(R.AppRefs) +
               "," + std::to_string(R.AllocRefs) + "," +
               std::to_string(R.TagRefs) + "," +
               std::to_string(R.Alloc.MallocCalls) + "," +
               std::to_string(R.Alloc.FreeCalls) + "," +
               std::to_string(R.HeapBytes) + "," +
               std::to_string(R.BlocksSearched) + "," +
               std::to_string(R.DistinctPages);
      if (WithFaults)
        Prefix += "," + std::to_string(Cell.Attempts) + "," +
                  std::to_string(R.FaultsInjected) + "," +
                  std::to_string(R.FaultsDetected) + "," +
                  std::to_string(R.SbrkDenied) + "," +
                  std::to_string(R.DroppedEvents);
    }
    if (!Cell.Ok || Cell.Result.Caches.empty()) {
      OS << Prefix << ",,,,,,,\n";
      continue;
    }
    for (const CacheResult &Cache : Cell.Result.Caches)
      OS << Prefix << "," << Cache.Config.SizeBytes / 1024 << ","
         << Cache.Config.BlockBytes << "," << Cache.Config.Assoc << ","
         << Cache.Stats.Accesses << "," << Cache.Stats.Misses << ","
         << jsonDouble(Cache.Stats.missRate()) << ","
         << jsonDouble(Cache.Time.seconds()) << "\n";
  }
}

TelemetrySnapshot ResultStore::mergedTelemetry() const {
  TelemetrySnapshot Merged;
  for (const CellOutcome &Cell : Cells)
    if (Cell.Ok)
      Merged.merge(Cell.Result.Telemetry);
  return Merged;
}

void ResultStore::writeTelemetryJson(std::ostream &OS) const {
  OS << "{\n";
  OS << "  \"schema\": \"allocsim-telemetry-v1\",\n";
  OS << "  \"level\": \"" << telemetryLevelName(Spec.Base.Telemetry)
     << "\",\n";
  OS << "  \"cells\": [";
  for (size_t I = 0; I != Cells.size(); ++I) {
    const CellOutcome &Cell = Cells[I];
    OS << (I ? ",\n" : "\n") << "    {";
    OS << "\"workload\": \"" << workloadName(Cell.Workload) << "\", ";
    OS << "\"allocator\": \"" << allocatorKindName(Cell.Allocator) << "\", ";
    OS << "\"penalty_cycles\": " << Cell.PenaltyCycles << ", ";
    OS << "\"ok\": " << (Cell.Ok ? "true" : "false") << ",\n";
    OS << "     \"telemetry\":\n";
    // Failed cells serialize whatever partial telemetry their last attempt
    // flushed before dying, instead of silently dropping it.
    (Cell.Ok ? Cell.Result.Telemetry : Cell.PartialTelemetry)
        .writeJson(OS, "      ");
    OS << "}";
  }
  OS << "\n  ],\n";
  OS << "  \"merged\":\n";
  mergedTelemetry().writeJson(OS, "    ");
  OS << "\n}\n";
}

void ResultStore::writeTelemetryCsv(std::ostream &OS) const {
  OS << "workload,allocator,penalty_cycles,kind,name,value,count,sum,min,"
        "max,mean\n";
  for (const CellOutcome &Cell : Cells) {
    if (!Cell.Ok)
      continue;
    std::string Prefix = std::string(workloadName(Cell.Workload)) + "," +
                         allocatorKindName(Cell.Allocator) + "," +
                         std::to_string(Cell.PenaltyCycles) + ",";
    const TelemetrySnapshot &Telem = Cell.Result.Telemetry;
    for (const auto &[Name, Value] : Telem.Counters)
      OS << Prefix << "counter," << Name << "," << Value << ",,,,,\n";
    for (const auto &[Name, Hist] : Telem.Histograms) {
      OS << Prefix << "histogram," << Name << ",," << Hist.Count << ","
         << Hist.Sum << ",";
      if (Hist.Count != 0)
        OS << Hist.Min << "," << Hist.Max << "," << jsonDouble(Hist.mean());
      else
        OS << ",,";
      OS << "\n";
    }
  }
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

namespace {

/// Simulates \p Cell; projectPenalty then fills in its coordinates and
/// penalty for each sibling cell.
CellOutcome runCell(const MatrixCell &Cell, const MatrixOptions &Options) {
  CellOutcome Outcome;
  Outcome.Workload = Cell.Config.Workload;
  Outcome.Allocator = Cell.Config.Allocator;
  Outcome.Seed = Cell.Config.Engine.Seed;

  std::string Invalid = validateCellConfig(Cell.Config);
  if (!Invalid.empty()) {
    Outcome.Error = Invalid;
    return Outcome;
  }

  // Graceful degradation: under a fault plan each simulation gets
  // RetryLimit extra attempts. The worker-fault dice are seeded from the
  // pair's fault seed (fixed at expansion), so which attempts die — and
  // therefore every retry outcome — is identical at any job count.
  const FaultPlan &Plan = Cell.Config.Inject;
  unsigned MaxAttempts = 1 + (Plan.enabled() ? Plan.RetryLimit : 0);
  Rng WorkerDice(Plan.Seed ^ 0x77666175u /* "wfau" */);
  for (unsigned Attempt = 1; Attempt <= MaxAttempts; ++Attempt) {
    Outcome.Attempts = Attempt;
    if (Plan.enabled() && Plan.CellRate > 0 &&
        WorkerDice.nextDouble() < Plan.CellRate) {
      // Simulated worker fault: the attempt dies before the run starts.
      Outcome.AttemptErrors.push_back("injected worker fault (attempt " +
                                      std::to_string(Attempt) + ")");
      continue;
    }
    TelemetrySnapshot Partial;
    try {
      Outcome.Result = Options.CellRunner
                           ? Options.CellRunner(Cell.Config, Partial)
                           : runExperiment(Cell.Config, &Partial);
      Outcome.Ok = true;
      return Outcome;
    } catch (const std::exception &E) {
      Outcome.AttemptErrors.push_back(E.what());
    } catch (...) {
      Outcome.AttemptErrors.push_back("unknown exception");
    }
    // A failed attempt's partial telemetry feeds the quarantine record;
    // keep the last attempt's (retries overwrite).
    Outcome.PartialTelemetry = std::move(Partial);
  }
  Outcome.Error = Outcome.AttemptErrors.back();
  return Outcome;
}

/// Fills penalty cell \p Cell from its pair's simulation \p Simulated: the
/// penalty enters only each cache's time estimate (see runWithDriver in
/// Lab.cpp), so every other field is the simulation's own.
CellOutcome projectPenalty(const CellOutcome &Simulated,
                           const MatrixCell &Cell) {
  CellOutcome Outcome = Simulated;
  Outcome.Coord = Cell.Coord;
  Outcome.PenaltyCycles = Cell.Config.MissPenaltyCycles;
  if (Outcome.Ok && Outcome.PenaltyCycles == 0) {
    // Fails validation like any other unrunnable cell config.
    Outcome.Ok = false;
    Outcome.Error = "miss penalty must be positive";
    Outcome.Result = RunResult();
    Outcome.Attempts = 0;
    Outcome.AttemptErrors.clear();
    return Outcome;
  }
  for (CacheResult &Cache : Outcome.Result.Caches)
    Cache.Time.MissPenalty = Outcome.PenaltyCycles;
  return Outcome;
}

} // namespace

ResultStore allocsim::runMatrix(const MatrixSpec &Spec,
                                const MatrixOptions &Options) {
  std::vector<MatrixCell> Cells = expandMatrix(Spec);
  ResultStore Store(Spec);
  // One simulation per (workload, allocator) pair, run with the pair's
  // first-penalty config; its penalty cells are contiguous in Cells.
  const size_t Penalties = Spec.PenaltiesCycles.size();
  const size_t Pairs = Penalties == 0 ? 0 : Cells.size() / Penalties;

  unsigned Jobs = Options.Jobs;
  if (Jobs == 0) {
    Jobs = std::thread::hardware_concurrency();
    if (Jobs == 0)
      Jobs = 1;
  }
  if (Jobs > Pairs)
    Jobs = static_cast<unsigned>(Pairs);

  auto Start = std::chrono::steady_clock::now();
  std::atomic<size_t> NextPair{0};
  std::mutex ProgressMutex;
  size_t Completed = 0, Failed = 0;

  auto FinishCell = [&](size_t Index, CellOutcome Outcome) {
    bool Ok = Outcome.Ok;
    Store.put(Index, std::move(Outcome));
    std::lock_guard<std::mutex> Lock(ProgressMutex);
    ++Completed;
    if (!Ok)
      ++Failed;
    if (Options.Progress) {
      MatrixProgress Progress;
      Progress.Completed = Completed;
      Progress.Total = Cells.size();
      Progress.Failed = Failed;
      Progress.ElapsedSeconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        Start)
              .count();
      Progress.EtaSeconds =
          Completed == 0
              ? 0.0
              : Progress.ElapsedSeconds *
                    static_cast<double>(Cells.size() - Completed) /
                    static_cast<double>(Completed);
      Options.Progress(Progress);
    }
  };

  auto Worker = [&] {
    for (;;) {
      size_t Pair = NextPair.fetch_add(1, std::memory_order_relaxed);
      if (Pair >= Pairs)
        return;
      size_t First = Pair * Penalties;
      CellOutcome Simulated = runCell(Cells[First], Options);
      for (size_t P = 0; P != Penalties; ++P)
        FinishCell(First + P, projectPenalty(Simulated, Cells[First + P]));
    }
  };

  if (Jobs <= 1) {
    Worker();
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(Jobs);
    for (unsigned I = 0; I != Jobs; ++I)
      Threads.emplace_back(Worker);
    for (std::thread &T : Threads)
      T.join();
  }
  return Store;
}

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

bool allocsim::parseCacheSpec(const std::string &Spec, CacheConfig &Config,
                              std::string &Error) {
  std::vector<std::string> Parts = splitSpecList(Spec, ':');
  if (Parts.empty() || Parts.size() > 3) {
    Error = "bad cache spec '" + Spec +
            "': expected sizeKB[:blockBytes[:assoc]]";
    return false;
  }
  uint32_t SizeKb = 0;
  if (!parseSpecUnsigned(Parts[0], "cache size (KB)", SizeKb, Error))
    return false;
  // The byte capacity is a 32-bit field; a larger size would wrap.
  if (SizeKb > UINT32_MAX / 1024) {
    Error = "bad cache size (KB): '" + Parts[0] +
            "' is out of range (at most " + std::to_string(UINT32_MAX / 1024) +
            ")";
    return false;
  }
  Config.SizeBytes = SizeKb * 1024;
  Config.BlockBytes = 32;
  Config.Assoc = 1;
  if (Parts.size() > 1 &&
      !parseSpecUnsigned(Parts[1], "cache block bytes", Config.BlockBytes,
                         Error))
    return false;
  if (Parts.size() > 2 &&
      !parseSpecUnsigned(Parts[2], "cache associativity", Config.Assoc,
                         Error))
    return false;
  if (!Config.valid()) {
    Error = "invalid cache geometry '" + Spec +
            "': sizes must be powers of two and consistent";
    return false;
  }
  return true;
}

namespace {

/// Walks the comma-separated items of \p Axis's value, handing each
/// non-empty item and its location to \p Parse, which returns why the item
/// is bad ("" when it is good). A bad or empty item (stray or trailing
/// comma) raises \p Rule at the item's own column.
template <typename Fn>
void forEachItem(const SpecKeyValue &Axis, const char *Rule,
                 DiagEngine &Diags, Fn Parse) {
  size_t Offset = Axis.Offset + Axis.Key.size() + 1;
  for (const std::string &Item : splitSpecList(Axis.Value, ',')) {
    SourceLoc Loc{1, static_cast<uint32_t>(Offset + 1)};
    Offset += Item.size() + 1;
    std::string Why = Item.empty() ? "empty item in '" + Axis.Value +
                                         "' (stray or trailing comma)"
                                   : Parse(Item, Loc);
    if (!Why.empty())
      Diags.error(Rule, Loc, Why);
  }
}

/// Appends \p Value to \p Axis, warning (spec-duplicate-value) when it is
/// already there: the run keeps both, so the matrix has duplicate cells.
template <typename T>
void addAxisValue(std::vector<T> &Axis, T Value, const std::string &What,
                  const std::string &Item, SourceLoc Loc, DiagEngine &Diags) {
  if (std::find(Axis.begin(), Axis.end(), Value) != Axis.end())
    Diags.warning("spec-duplicate-value", Loc,
                  What + " '" + Item +
                      "' listed twice (duplicate matrix cells)");
  Axis.push_back(Value);
}

/// Parses a paging or penalty axis into \p Values.
void parseNumberAxis(const SpecKeyValue &Axis, const char *What,
                     std::vector<uint32_t> &Values, DiagEngine &Diags) {
  Values.clear();
  forEachItem(Axis, "spec-bad-number", Diags,
              [&](const std::string &Item, SourceLoc) {
                uint32_t Value = 0;
                std::string Why;
                if (parseSpecUnsigned(Item, What, Value, Why))
                  Values.push_back(Value);
                return Why;
              });
}

} // namespace

bool allocsim::parseMatrixSpec(const std::string &Text, MatrixSpec &Spec,
                               DiagEngine &Diags) {
  size_t ErrorsBefore = Diags.errorCount();
  Spec.Workloads.clear();
  Spec.Allocators.clear();
  Spec.PenaltiesCycles = {25};
  Spec.Caches.clear();
  Spec.PagingMemoryKb.clear();

  // Structural pass (spec-empty-axis, -missing-equals, -duplicate-axis,
  // -empty-value); the axes that survive it are parsed below.
  bool SawWorkloads = false, SawAllocators = false;
  for (const SpecKeyValue &Axis : parseSpecKeyValues(Text, Diags)) {
    if (Axis.Key == "workloads") {
      SawWorkloads = true;
      forEachItem(Axis, "spec-unknown-workload", Diags,
                  [&](const std::string &Item, SourceLoc Loc) {
                    WorkloadId Id;
                    if (!tryParseWorkload(Item, Id))
                      return "unknown workload '" + Item + "'";
                    addAxisValue(Spec.Workloads, Id, "workload", Item, Loc,
                                 Diags);
                    return std::string();
                  });
    } else if (Axis.Key == "allocators") {
      SawAllocators = true;
      forEachItem(Axis, "spec-unknown-allocator", Diags,
                  [&](const std::string &Item, SourceLoc Loc) {
                    AllocatorKind Kind;
                    if (!tryParseAllocatorKind(Item, Kind))
                      return "unknown allocator '" + Item + "'";
                    addAxisValue(Spec.Allocators, Kind, "allocator", Item,
                                 Loc, Diags);
                    return std::string();
                  });
    } else if (Axis.Key == "caches") {
      forEachItem(Axis, "spec-bad-cache", Diags,
                  [&](const std::string &Item, SourceLoc) {
                    CacheConfig Config;
                    std::string Why;
                    if (parseCacheSpec(Item, Config, Why))
                      Spec.Caches.push_back(Config);
                    return Why;
                  });
    } else if (Axis.Key == "paging") {
      parseNumberAxis(Axis, "paging memory size (KB)", Spec.PagingMemoryKb,
                      Diags);
    } else if (Axis.Key == "penalty") {
      parseNumberAxis(Axis, "miss penalty (cycles)", Spec.PenaltiesCycles,
                      Diags);
    } else if (Axis.Key == "telemetry") {
      if (!tryParseTelemetryLevel(Axis.Value, Spec.Base.Telemetry))
        Diags.error("spec-bad-value",
                    {1, static_cast<uint32_t>(Axis.Offset + Axis.Key.size() +
                                              2)},
                    "bad telemetry level '" + Axis.Value +
                        "' (expected off, summary or full)");
    } else {
      Diags.error("spec-unknown-axis",
                  {1, static_cast<uint32_t>(Axis.Offset + 1)},
                  "unknown matrix axis '" + Axis.Key +
                      "' (expected workloads/allocators/caches/paging/"
                      "penalty/telemetry)");
    }
  }

  // No workload (or allocator) means the cell cross-product is empty. An
  // axis whose every name was bad already carries its own errors; this one
  // says why nothing would run.
  if (Spec.Workloads.empty())
    Diags.error("spec-missing-workloads", {},
                SawWorkloads ? "no usable workload survives the 'workloads' "
                               "axis; the cell cross-product is empty"
                             : "matrix spec must name at least one workload "
                               "(workloads=gs,espresso,...)");
  if (Spec.Allocators.empty())
    Diags.error("spec-missing-allocators", {},
                SawAllocators
                    ? "no usable allocator survives the 'allocators' axis; "
                      "the cell cross-product is empty"
                    : "matrix spec must name at least one allocator "
                      "(allocators=FirstFit,BSD,...)");
  return Diags.errorCount() == ErrorsBefore;
}
