//===- conform/Metamorphic.cpp - Metamorphic invariant suite --------------===//

#include "conform/Metamorphic.h"

#include "core/MatrixRunner.h"
#include "trace/AllocEvents.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

using namespace allocsim;

namespace {

/// All allocators the metamorphic properties quantify over: the five paper
/// allocators plus the PAPERS.md modern extensions. The invariants are
/// policy-independent, so every backend must satisfy them.
std::vector<AllocatorKind> metamorphicAllocators() {
  std::vector<AllocatorKind> Kinds(std::begin(PaperAllocators),
                                   std::end(PaperAllocators));
  Kinds.push_back(AllocatorKind::BitmapFit);
  Kinds.push_back(AllocatorKind::SpaceFit);
  return Kinds;
}

/// A matrix over the metamorphic workloads (one heavy churner, one light)
/// and every allocator, observing \p Caches.
MatrixSpec familySpec(std::vector<CacheConfig> Caches,
                      const MetamorphicOptions &Options) {
  MatrixSpec Spec;
  Spec.Workloads = {WorkloadId::Espresso, WorkloadId::Make};
  Spec.Allocators = metamorphicAllocators();
  Spec.Caches = std::move(Caches);
  Spec.Base.Engine.Scale = Options.Scale;
  Spec.Base.Engine.Seed = Options.Seed;
  return Spec;
}

/// The shared base matrix every matrix-level property transforms: two
/// cache geometries, telemetry on so merged-snapshot equality is exercised.
MatrixSpec baseSpec(const MetamorphicOptions &Options) {
  MatrixSpec Spec = familySpec({{16 * 1024, 32, 1}, {64 * 1024, 32, 1}},
                               Options);
  Spec.Base.Telemetry = TelemetryLevel::Summary;
  return Spec;
}

std::string goldenOf(const ResultStore &Store) {
  std::ostringstream OS;
  Store.writeGoldenJson(OS);
  return OS.str();
}

/// Exact-integer fingerprint of one cell outcome; two outcomes with equal
/// fingerprints and equal telemetry snapshots measured the same run.
std::string cellFingerprint(const CellOutcome &Cell) {
  std::ostringstream OS;
  OS << (Cell.Ok ? "ok" : Cell.Error) << " seed=" << Cell.Seed
     << " app=" << Cell.Result.AppInstructions
     << " alloc=" << Cell.Result.AllocInstructions
     << " refs=" << Cell.Result.TotalRefs << " tag=" << Cell.Result.TagRefs
     << " heap=" << Cell.Result.HeapBytes
     << " searched=" << Cell.Result.BlocksSearched
     << " mallocs=" << Cell.Result.Alloc.MallocCalls;
  for (const CacheResult &Cache : Cell.Result.Caches)
    OS << " c" << Cache.Config.SizeBytes << "/" << Cache.Config.Assoc << "="
       << Cache.Stats.Misses << "/" << Cache.Stats.Accesses;
  return OS.str();
}

std::string cellName(const ResultStore &Store, const CellCoord &At) {
  const MatrixSpec &Spec = Store.spec();
  return std::string(workloadName(Spec.Workloads[At.WorkloadIdx])) + "/" +
         allocatorKindName(Spec.Allocators[At.AllocatorIdx]) + "/p" +
         std::to_string(Spec.PenaltiesCycles[At.PenaltyIdx]);
}

/// conform-meta-jobs: the serial run \p Whole and a parallel run of the
/// same spec are bit-identical, both in the golden serialization and in the
/// merged telemetry fold.
size_t checkJobsInvariance(const MatrixSpec &Spec, const ResultStore &Whole,
                           const MetamorphicOptions &Options,
                           DiagEngine &Diags) {
  MatrixOptions Parallel;
  Parallel.Jobs = Options.Jobs > 1 ? Options.Jobs : 8;
  ResultStore ParallelStore = runMatrix(Spec, Parallel);

  if (goldenOf(Whole) != goldenOf(ParallelStore))
    Diags.error("conform-meta-jobs", {},
                "golden serialization differs between --jobs=1 and --jobs=" +
                    std::to_string(Parallel.Jobs));
  if (!(Whole.mergedTelemetry() == ParallelStore.mergedTelemetry()))
    Diags.error("conform-meta-jobs", {},
                "merged telemetry differs between --jobs=1 and --jobs=" +
                    std::to_string(Parallel.Jobs));
  return 2;
}

/// conform-meta-split: an allocator-axis split reassembles to the unsplit
/// matrix, cell for cell, and the two halves' telemetry folds to the whole.
size_t checkSplitMerge(const MatrixSpec &Spec, const ResultStore &Whole,
                       const MatrixOptions &RunOptions, DiagEngine &Diags) {
  size_t Half = Spec.Allocators.size() / 2;
  MatrixSpec Lo = Spec, Hi = Spec;
  Lo.Allocators.assign(Spec.Allocators.begin(),
                       Spec.Allocators.begin() + Half);
  Hi.Allocators.assign(Spec.Allocators.begin() + Half,
                       Spec.Allocators.end());

  ResultStore LoStore = runMatrix(Lo, RunOptions);
  ResultStore HiStore = runMatrix(Hi, RunOptions);

  size_t Checked = 0;
  for (size_t W = 0; W != Spec.Workloads.size(); ++W) {
    for (size_t A = 0; A != Spec.Allocators.size(); ++A) {
      for (size_t P = 0; P != Spec.PenaltiesCycles.size(); ++P) {
        const CellOutcome &Expect = Whole.at(W, A, P);
        const CellOutcome &Got = A < Half ? LoStore.at(W, A, P)
                                          : HiStore.at(W, A - Half, P);
        ++Checked;
        if (cellFingerprint(Expect) != cellFingerprint(Got) ||
            !(Expect.Result.Telemetry == Got.Result.Telemetry))
          Diags.error("conform-meta-split", {},
                      "allocator-axis split changed cell " +
                          cellName(Whole, Expect.Coord) + ": [" +
                          cellFingerprint(Expect) + "] became [" +
                          cellFingerprint(Got) + "]");
      }
    }
  }

  TelemetrySnapshot Folded = LoStore.mergedTelemetry();
  Folded.merge(HiStore.mergedTelemetry());
  ++Checked;
  if (!(Folded == Whole.mergedTelemetry()))
    Diags.error("conform-meta-split", {},
                "telemetry of the two halves does not fold to the unsplit "
                "matrix's merged snapshot");
  return Checked;
}

/// conform-meta-permute: reversing the allocator axis permutes cells and
/// changes nothing else.
size_t checkPermutation(const MatrixSpec &Spec, const ResultStore &Whole,
                        const MatrixOptions &RunOptions, DiagEngine &Diags) {
  MatrixSpec Reversed = Spec;
  std::reverse(Reversed.Allocators.begin(), Reversed.Allocators.end());
  ResultStore ReversedStore = runMatrix(Reversed, RunOptions);

  size_t Checked = 0;
  size_t NumAlloc = Spec.Allocators.size();
  for (size_t W = 0; W != Spec.Workloads.size(); ++W) {
    for (size_t A = 0; A != NumAlloc; ++A) {
      for (size_t P = 0; P != Spec.PenaltiesCycles.size(); ++P) {
        const CellOutcome &Expect = Whole.at(W, A, P);
        const CellOutcome &Got = ReversedStore.at(W, NumAlloc - 1 - A, P);
        ++Checked;
        if (cellFingerprint(Expect) != cellFingerprint(Got))
          Diags.error("conform-meta-permute", {},
                      "allocator-axis permutation changed cell " +
                          cellName(Whole, Expect.Coord) + ": [" +
                          cellFingerprint(Expect) + "] became [" +
                          cellFingerprint(Got) + "]");
      }
    }
  }
  return Checked;
}

/// conform-meta-assoc: with the set count held fixed, doubling
/// associativity (so capacity doubles too) can never increase LRU misses —
/// the stack inclusion property — along \p Store's cache chain, ordered
/// narrowest first.
size_t checkAssocInclusion(const ResultStore &Store, DiagEngine &Diags) {
  size_t Checked = 0;
  for (size_t I = 0; I != Store.size(); ++I) {
    const CellOutcome &Cell = Store.cell(I);
    const std::string Name = cellName(Store, Cell.Coord);
    if (!Cell.Ok) {
      Diags.error("conform-meta-assoc", {},
                  "cell " + Name + " failed: " + Cell.Error);
      continue;
    }
    for (size_t C = 0; C + 1 < Cell.Result.Caches.size(); ++C) {
      ++Checked;
      uint64_t Narrow = Cell.Result.Caches[C].Stats.Misses;
      uint64_t Wide = Cell.Result.Caches[C + 1].Stats.Misses;
      if (Wide > Narrow)
        Diags.error("conform-meta-assoc", {},
                    "LRU inclusion violated for " + Name + ": " +
                        Cell.Result.Caches[C].Config.describe() + " had " +
                        std::to_string(Narrow) + " misses but " +
                        Cell.Result.Caches[C + 1].Config.describe() +
                        " had " + std::to_string(Wide));
    }
  }
  return Checked;
}

/// Exact-integer fingerprint of one cache member's statistics, by source.
std::string statsFingerprint(const CacheConfig &Config,
                             const CacheStats &Stats) {
  std::ostringstream OS;
  OS << " c" << Config.SizeBytes << "/" << Config.Assoc << "="
     << Stats.Misses << "/" << Stats.Accesses;
  for (unsigned S = 0; S != NumAccessSources; ++S)
    OS << " " << Stats.MissesBySource[S] << "/" << Stats.AccessesBySource[S];
  return OS.str();
}

/// The conform-meta-engine cell runner: simulates the cell once, with a
/// CacheBank (one CacheSim per member, the oracle) observing the reference
/// stream next to the automatically chosen cache engine, and fails the cell
/// unless both report the same misses and accesses per member, in total
/// and by source.
RunResult runWithBankOracle(const ExperimentConfig &Config,
                            TelemetrySnapshot &Partial) {
  CacheBank Bank;
  for (const CacheConfig &Cache : Config.Caches)
    Bank.addCache(Cache);
  RunResult Result = runExperiment(Config, &Partial, &Bank);

  std::string Engine, Oracle;
  for (size_t I = 0; I != Config.Caches.size(); ++I) {
    Engine += statsFingerprint(Config.Caches[I], Result.Caches[I].Stats);
    Oracle += statsFingerprint(Config.Caches[I], Bank.cache(I).stats());
  }
  if (Engine != Oracle)
    throw std::runtime_error(
        "cache engine disagrees with CacheBank: engine [" + Engine +
        "] vs CacheBank [" + Oracle + "]");
  return Result;
}

/// conform-meta-engine: whichever engine the cache layer picks for a family
/// — the one-pass ladder for the paper's direct-mapped sweep, the stack
/// kernel for an associativity family — agrees with the CacheBank oracle on
/// every cell of \p Store, which runWithBankOracle produced.
size_t checkEngineEquivalence(const ResultStore &Store, DiagEngine &Diags) {
  for (size_t I = 0; I != Store.size(); ++I) {
    const CellOutcome &Cell = Store.cell(I);
    if (!Cell.Ok)
      Diags.error("conform-meta-engine", {},
                  "cell " + cellName(Store, Cell.Coord) + " failed: " +
                      Cell.Error);
  }
  return Store.size();
}

/// Deterministic scripted workload for the relabel property: interleaved
/// allocate/touch/free traffic over a few hundred objects with mixed sizes
/// and lifetimes. Pure function of the seed (SplitMix64 locally, no global
/// RNG), so both relabeled and plain runs replay the identical sequence.
std::vector<AllocEvent> synthesizeScript(uint64_t Seed) {
  auto Next = [State = Seed]() mutable {
    State += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  };

  struct LiveObject {
    uint32_t Id;
    uint32_t Words;
  };
  std::vector<AllocEvent> Events;
  std::vector<LiveObject> Live;
  uint32_t NextId = 1;
  for (unsigned I = 0; I != 2000; ++I) {
    uint64_t Roll = Next();
    if (Live.empty() || Roll % 100 < 45) {
      uint32_t Size = 8u + static_cast<uint32_t>(Next() % 24) * 8u;
      Events.push_back(AllocEvent::makeMalloc(NextId, Size));
      Live.push_back({NextId, Size / 4});
      ++NextId;
    } else if (Roll % 100 < 80) {
      const LiveObject &Victim = Live[Next() % Live.size()];
      uint32_t Words = 1u + static_cast<uint32_t>(Next() % Victim.Words);
      Events.push_back(AllocEvent::makeTouch(
          Victim.Id, Words,
          Next() % 2 ? AccessKind::Write : AccessKind::Read));
    } else {
      size_t Idx = Next() % Live.size();
      Events.push_back(AllocEvent::makeFree(Live[Idx].Id));
      Live.erase(Live.begin() + static_cast<ptrdiff_t>(Idx));
    }
  }
  for (const LiveObject &Object : Live)
    Events.push_back(AllocEvent::makeFree(Object.Id));
  return Events;
}

/// conform-meta-relabel: mapping every object id through a bijection (an
/// odd multiplier is invertible mod 2^32) must leave every measurement of a
/// scripted run unchanged for every allocator.
size_t checkRelabelInvariance(const MetamorphicOptions &Options,
                              DiagEngine &Diags) {
  std::vector<AllocEvent> Plain = synthesizeScript(Options.Seed);
  std::vector<AllocEvent> Relabeled = Plain;
  for (AllocEvent &Event : Relabeled)
    if (Event.Kind != AllocEventKind::StackTouch)
      Event.Id = Event.Id * 2654435761u;

  size_t Checked = 0;
  for (AllocatorKind Kind : metamorphicAllocators()) {
    ExperimentConfig Config;
    Config.Workload = WorkloadId::Espresso;
    Config.Allocator = Kind;
    Config.Caches = {{16 * 1024, 32, 1}};
    RunResult PlainResult = runScriptExperiment(Config, Plain);
    RunResult RelabeledResult = runScriptExperiment(Config, Relabeled);
    ++Checked;
    bool Same =
        PlainResult.TotalRefs == RelabeledResult.TotalRefs &&
        PlainResult.AllocInstructions == RelabeledResult.AllocInstructions &&
        PlainResult.HeapBytes == RelabeledResult.HeapBytes &&
        PlainResult.BlocksSearched == RelabeledResult.BlocksSearched &&
        PlainResult.Caches[0].Stats.Misses ==
            RelabeledResult.Caches[0].Stats.Misses &&
        PlainResult.Caches[0].Stats.Accesses ==
            RelabeledResult.Caches[0].Stats.Accesses;
    if (!Same)
      Diags.error("conform-meta-relabel", {},
                  std::string("object-id relabeling changed ") +
                      allocatorKindName(Kind) + " measurements: misses " +
                      std::to_string(PlainResult.Caches[0].Stats.Misses) +
                      " became " +
                      std::to_string(RelabeledResult.Caches[0].Stats.Misses) +
                      ", heap " + std::to_string(PlainResult.HeapBytes) +
                      " became " +
                      std::to_string(RelabeledResult.HeapBytes));
  }
  return Checked;
}

} // namespace

size_t allocsim::runMetamorphicSuite(const MetamorphicOptions &Options,
                                     DiagEngine &Diags) {
  MatrixOptions RunOptions;
  RunOptions.Jobs = Options.Jobs;
  MatrixOptions Serial;
  Serial.Jobs = 1;
  MatrixOptions Oracle = RunOptions;
  Oracle.CellRunner = runWithBankOracle;

  // Whole is also conform-meta-jobs' serial leg.
  MatrixSpec Spec = baseSpec(Options);
  ResultStore Whole = runMatrix(Spec, Serial);
  // Both engine families run once, observed by the oracle; 16K
  // direct-mapped, 32K 2-way and 64K 4-way with 32-byte blocks all have 512
  // sets, so that family is also conform-meta-assoc's first chain. The
  // second, fully associative chain (one set each, Assoc == numBlocks) is
  // the pure stack property.
  ResultStore Sweep =
      runMatrix(familySpec(paperCacheSweep(), Options), Oracle);
  ResultStore Chain = runMatrix(
      familySpec({{16 * 1024, 32, 1}, {32 * 1024, 32, 2}, {64 * 1024, 32, 4}},
                 Options),
      Oracle);
  ResultStore FullyAssoc = runMatrix(
      familySpec({{512, 32, 16}, {1024, 32, 32}}, Options), RunOptions);

  size_t Checked = 0;
  Checked += checkJobsInvariance(Spec, Whole, Options, Diags);
  Checked += checkSplitMerge(Spec, Whole, RunOptions, Diags);
  Checked += checkPermutation(Spec, Whole, RunOptions, Diags);
  Checked += checkAssocInclusion(Chain, Diags);
  Checked += checkAssocInclusion(FullyAssoc, Diags);
  Checked += checkEngineEquivalence(Sweep, Diags);
  Checked += checkEngineEquivalence(Chain, Diags);
  Checked += checkRelabelInvariance(Options, Diags);
  return Checked;
}
