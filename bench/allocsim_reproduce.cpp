//===- bench/allocsim_reproduce.cpp - Every paper artifact, one binary ----===//
//
// Regenerates Tables 2-6 and Figures 1-8 of the paper, as the paper does:
// every allocator runs on the same request stream for each program, once,
// and every artifact is read from those runs. Two matrices go through the
// MatrixRunner (--jobs workers; results are bit-identical at any job
// count):
//
//   paper  espresso, gs, ptc, gawk, make, gs-small and gs-medium x the five
//          paper allocators; the 16K-256K direct-mapped sweep and the
//          page-fault curve at every Figure 2 and 3 memory size
//          (paperStoreSpec). Feeds every artifact but Table 6's tag rows.
//   tags   the five applications x GNU LOCAL with emulated 8-byte boundary
//          tags, 64K cache (tagsStoreSpec). Each cell replays the stream of
//          paper's GNU LOCAL cell for the same application.
//
// Renderers find workloads and caches in a store by value. --out-json P and
// --out-telemetry-json P export each matrix to P.<matrix>.json.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "PaperData.h"

#include <algorithm>
#include <cassert>
#include <iostream>

using namespace allocsim;

namespace {

/// Position of \p Value on a store axis; the renderers only ask for
/// values their spec builder put there.
template <typename T> size_t indexOf(const std::vector<T> &Axis, T Value) {
  auto It = std::find(Axis.begin(), Axis.end(), Value);
  assert(It != Axis.end() && "value missing from the matrix axis");
  return static_cast<size_t>(It - Axis.begin());
}

size_t workloadIdx(const ResultStore &Store, WorkloadId Workload) {
  return indexOf(Store.spec().Workloads, Workload);
}

/// Index of the \p Kb direct-mapped, 32-byte-block cache.
size_t cacheIdx(const ResultStore &Store, uint32_t Kb) {
  return indexOf(Store.spec().Caches, CacheConfig{Kb * 1024, 32, 1});
}

/// The scale a workload actually runs at (PTC-like workloads are clamped to
/// keep their live heap).
uint32_t effectiveScale(WorkloadId Workload, const BenchOptions &Options) {
  return WorkloadEngine(getProfile(Workload),
                        baseConfig(Workload, Options).Engine)
      .effectiveScale();
}

/// Tables 2 and 3: instruction, reference, heap and object counts under the
/// FIRSTFIT baseline (allocator 0 of \p Paper), next to the paper's values.
/// Measured totals are scaled back up for an apples-to-apples comparison.
void renderWorkloadTable(const ResultStore &Paper,
                         const std::vector<WorkloadId> &Rows,
                         bool ScaleColumn, const BenchOptions &Options) {
  std::vector<std::string> Headers = {
      ScaleColumn ? "program" : "input", "instr(M)", "paper", "refs(M)",
      "paper", "heap KB", "paper", "alloc'd(K)", "paper", "freed(K)",
      "paper"};
  if (ScaleColumn)
    Headers.push_back("scale");
  Table Out(Headers);
  for (WorkloadId Workload : Rows) {
    const AppProfile &Profile = getProfile(Workload);
    const RunResult &Result = Paper.at(workloadIdx(Paper, Workload), 0).Result;
    uint32_t Scale = effectiveScale(Workload, Options);

    Out.beginRow();
    Out.cell(Profile.Name);
    Out.num(double(Result.totalInstructions()) * Scale / 1e6, 0);
    Out.num(Profile.PaperInstrMillions, 0);
    Out.num(double(Result.TotalRefs) * Scale / 1e6, 0);
    Out.num(Profile.PaperDataRefsMillions, 0);
    Out.num(uint64_t(Result.HeapBytes / 1024));
    Out.num(uint64_t(Profile.PaperMaxHeapKb));
    Out.num(double(Result.Alloc.MallocCalls) * Scale / 1e3, 0);
    Out.num(Profile.PaperObjectsAllocated / 1e3, 0);
    Out.num(double(Result.Alloc.FreeCalls) * Scale / 1e3, 0);
    Out.num(Profile.PaperObjectsFreed / 1e3, 0);
    if (ScaleColumn)
      Out.cell("1/" + std::to_string(Scale));
  }
  renderTable(Out, Options);
}

/// Figure 1: percent of executed instructions spent in malloc/free, with no
/// cache penalty, as the paper counts it. Shape: BSD is uniformly the
/// leanest, QuickFit close behind; FIRSTFIT's scans and GNU LOCAL's
/// bookkeeping make them the most expensive.
void renderMallocTime(const ResultStore &Paper, const BenchOptions &Options) {
  std::vector<std::string> Headers = {"allocator"};
  for (WorkloadId Workload : PaperWorkloads)
    Headers.push_back(workloadName(Workload));
  Table Out(Headers);
  for (size_t A = 0; A != 5; ++A) {
    Out.beginRow();
    Out.cell(allocatorKindName(PaperAllocators[A]));
    for (WorkloadId Workload : PaperWorkloads)
      Out.num(100.0 *
                  Paper.at(workloadIdx(Paper, Workload), A)
                      .Result.allocInstrFraction(),
              1);
  }
  renderTable(Out, Options, "% of instructions in malloc/free");
}

/// Figures 2 and 3: faults per reference of \p Workload at each of
/// \p MemoryKb (4 KB pages, LRU) plus each allocator's total heap, the
/// figure's x-axis end symbols. Shape: the sequential fits (FIRSTFIT above
/// all) degrade far faster as memory shrinks; BSD needs the most memory;
/// the segregated allocators are the most resilient.
void renderPageFaults(const ResultStore &Paper, WorkloadId Workload,
                      const std::vector<uint32_t> &MemoryKb,
                      const BenchOptions &Options) {
  size_t W = workloadIdx(Paper, Workload);
  std::vector<std::string> Headers = {"memory KB"};
  for (AllocatorKind Allocator : PaperAllocators)
    Headers.emplace_back(allocatorKindName(Allocator));
  Table Out(Headers);
  for (uint32_t Kb : MemoryKb) {
    size_t Point = indexOf(Paper.spec().PagingMemoryKb, Kb);
    Out.beginRow();
    Out.num(uint64_t(Kb));
    for (size_t A = 0; A != 5; ++A)
      Out.cell(formatRate(Paper.at(W, A).Result.Paging[Point].FaultsPerRef));
  }
  renderTable(Out, Options, "page faults per memory reference (4 KB pages)");

  Table Heap({"allocator", "total heap KB", "distinct pages"});
  for (size_t A = 0; A != 5; ++A) {
    const RunResult &Result = Paper.at(W, A).Result;
    Heap.beginRow();
    Heap.cell(allocatorKindName(PaperAllocators[A]));
    Heap.num(uint64_t(Result.HeapBytes / 1024));
    Heap.num(Result.DistinctPages);
  }
  renderTable(Heap, Options,
              "memory requested per allocator (the figure's x-axis ends)");
}

/// Figures 4 and 5: execution time normalized to FIRSTFIT within each
/// application, instructions only and with the 25-cycle penalty on the
/// \p CacheKb cache of \p Store, plus the miss share of execution time.
/// Shape: misses add up to ~25% and the addition differs sharply by
/// allocator.
void renderNormalizedTime(const ResultStore &Store, uint32_t CacheKb,
                          const BenchOptions &Options) {
  size_t CacheIdx = cacheIdx(Store, CacheKb);
  std::vector<std::string> Headers = {"allocator"};
  for (WorkloadId Workload : PaperWorkloads)
    Headers.push_back(std::string(workloadName(Workload)) + " base/total");
  Table Out(Headers);
  for (size_t A = 0; A != 5; ++A) {
    Out.beginRow();
    Out.cell(allocatorKindName(PaperAllocators[A]));
    for (WorkloadId Workload : PaperWorkloads) {
      size_t W = workloadIdx(Store, Workload);
      const RunResult &Run = Store.at(W, A).Result;
      const RunResult &FirstFit = Store.at(W, 0).Result;
      double BaseNorm = double(Run.totalInstructions()) /
                        double(FirstFit.totalInstructions());
      double TotalNorm = Run.Caches[CacheIdx].Time.totalCycles() /
                         FirstFit.Caches[CacheIdx].Time.totalCycles();
      Out.cell(formatDouble(BaseNorm, 3) + "/" + formatDouble(TotalNorm, 3));
    }
  }
  renderTable(Out, Options,
              "execution time normalized to FirstFit "
              "(base = instructions only; total = with cache penalty)");

  Table Share({"allocator", "espresso", "gs", "ptc", "gawk", "make"});
  for (size_t A = 0; A != 5; ++A) {
    Share.beginRow();
    Share.cell(allocatorKindName(PaperAllocators[A]));
    for (WorkloadId Workload : PaperWorkloads) {
      size_t W = workloadIdx(Store, Workload);
      const TimeEstimate &Est = Store.at(W, A).Result.Caches[CacheIdx].Time;
      Share.num(100.0 * Est.missCycles() / Est.totalCycles(), 1);
    }
  }
  renderTable(Share, Options, "cache-miss share of execution time (%)");
}

/// Figures 6-8: miss rate vs direct-mapped cache size for each GS input.
/// Shape: FIRSTFIT is highest at every size, GNU G++ second; differences
/// are muted for the small input.
void renderGsMissRate(const ResultStore &Store, const BenchOptions &Options) {
  const std::pair<WorkloadId, const char *> Figures[] = {
      {WorkloadId::GsSmall, "Figure 6 (GS-Small)"},
      {WorkloadId::GsMedium, "Figure 7 (GS-Medium)"},
      {WorkloadId::Gs, "Figure 8 (GS-Large)"}};
  const std::vector<CacheConfig> &Caches = Store.spec().Caches;
  for (const auto &[Workload, Figure] : Figures) {
    size_t W = workloadIdx(Store, Workload);
    std::vector<std::string> Headers = {"cache KB"};
    for (AllocatorKind Allocator : PaperAllocators)
      Headers.emplace_back(allocatorKindName(Allocator));
    Table Out(Headers);
    for (size_t C = 0; C != Caches.size(); ++C) {
      Out.beginRow();
      Out.num(uint64_t(Caches[C].SizeBytes / 1024));
      for (size_t A = 0; A != 5; ++A)
        Out.num(100.0 * Store.at(W, A).Result.Caches[C].Stats.missRate(), 2);
    }
    renderTable(Out, Options, std::string(Figure) + ": miss rate (%)");
  }
}

/// Tables 4 and 5: estimated total seconds and seconds waiting on misses
/// of the \p CacheKb cache of \p Store, scaled back to paper volume, next
/// to the paper's published values.
void renderTimeTable(const ResultStore &Store, uint32_t CacheKb,
                     const PaperTime Paper[5][5],
                     const BenchOptions &Options) {
  size_t CacheIdx = cacheIdx(Store, CacheKb);
  auto FormatPaper = [](const PaperTime &Entry) -> std::string {
    if (Entry.TotalSeconds < 0)
      return "?";
    return formatDouble(Entry.TotalSeconds, 2) + "/" +
           formatDouble(Entry.MissSeconds, 2);
  };

  std::vector<std::string> Headers = {"allocator"};
  for (WorkloadId Workload : PaperWorkloads) {
    Headers.push_back(std::string(workloadName(Workload)));
    Headers.push_back("paper");
  }
  Table Out(Headers);
  for (size_t A = 0; A != 5; ++A) {
    Out.beginRow();
    Out.cell(allocatorKindName(PaperAllocators[A]));
    for (size_t W = 0; W != 5; ++W) {
      size_t Row = workloadIdx(Store, PaperWorkloads[W]);
      const TimeEstimate &Est = Store.at(Row, A).Result.Caches[CacheIdx].Time;
      // Live heaps are unscaled, so the miss *rate* is directly comparable
      // and seconds scale linearly with volume.
      double Scale = effectiveScale(PaperWorkloads[W], Options);
      Out.cell(formatDouble(Est.seconds() * Scale, 2) + "/" +
               formatDouble(Est.missSeconds() * Scale, 2));
      Out.cell(FormatPaper(Paper[A][W]));
    }
  }
  renderTable(Out, Options,
              "estimated total seconds / seconds waiting on " +
                  std::to_string(CacheKb) +
                  "K-cache misses (25 MHz, scaled back to paper volume)");
}

/// Table 6: GNU LOCAL with and without emulated boundary tags on the 64K
/// cache. Paper result: tags raise the miss rate slightly and cost
/// 0.1%-1.1% of total execution time.
void renderBoundaryTags(const ResultStore &Tags, const ResultStore &Paper,
                        const BenchOptions &Options) {
  size_t GnuLocal = indexOf(Paper.spec().Allocators, AllocatorKind::GnuLocal);
  // Paper's Table 6 reference rows (miss rate %, miss penalty % of time).
  const double PaperTaggedMiss[5] = {0.880, 0.580, 0.600, 0.250, 0.240};
  const double PaperTaggedPenalty[5] = {5.27, 4.51, 4.91, 1.99, 1.78};
  const double PaperPlainMiss[5] = {0.680, 0.560, 0.500, 0.210, 0.200};
  const double PaperPlainPenalty[5] = {4.14, 4.37, 4.53, 1.68, 1.49};
  const double PaperCost[5] = {1.13, 0.14, 0.78, 0.31, 0.29};

  auto Tagged = [&](size_t W) -> const CacheResult & {
    return Tags.at(workloadIdx(Tags, PaperWorkloads[W]), 0)
        .Result.Caches[cacheIdx(Tags, 64)];
  };
  auto Plain = [&](size_t W) -> const CacheResult & {
    return Paper.at(workloadIdx(Paper, PaperWorkloads[W]), GnuLocal)
        .Result.Caches[cacheIdx(Paper, 64)];
  };
  auto MissPct = [](const CacheResult &Cache) {
    return 100.0 * Cache.Stats.missRate();
  };
  auto PenaltyPct = [](const CacheResult &Cache) {
    return 100.0 * Cache.Time.missCycles() / Cache.Time.totalCycles();
  };

  Table Out({"metric", "espresso", "gs", "ptc", "gawk", "make"});
  auto EmitRow = [&](const std::string &Label, auto Value) {
    Out.beginRow();
    Out.cell(Label);
    for (size_t W = 0; W != 5; ++W)
      Out.num(Value(W), 3);
  };
  EmitRow("tags: miss rate %", [&](size_t W) { return MissPct(Tagged(W)); });
  EmitRow("tags: miss rate % (paper)",
          [&](size_t W) { return PaperTaggedMiss[W]; });
  EmitRow("tags: miss penalty % of time",
          [&](size_t W) { return PenaltyPct(Tagged(W)); });
  EmitRow("tags: penalty % (paper)",
          [&](size_t W) { return PaperTaggedPenalty[W]; });
  EmitRow("no tags: miss rate %", [&](size_t W) { return MissPct(Plain(W)); });
  EmitRow("no tags: miss rate % (paper)",
          [&](size_t W) { return PaperPlainMiss[W]; });
  EmitRow("no tags: miss penalty % of time",
          [&](size_t W) { return PenaltyPct(Plain(W)); });
  EmitRow("no tags: penalty % (paper)",
          [&](size_t W) { return PaperPlainPenalty[W]; });
  EmitRow("tag cost (% of exec time)", [&](size_t W) {
    double TaggedCycles = Tagged(W).Time.totalCycles();
    double PlainCycles = Plain(W).Time.totalCycles();
    return 100.0 * (TaggedCycles - PlainCycles) / PlainCycles;
  });
  EmitRow("tag cost % (paper)", [&](size_t W) { return PaperCost[W]; });
  renderTable(Out, Options);

  std::cout << "Note: the paper's absolute miss rates are lower at every "
               "--scale, paper volume\nincluded (cause unverified; "
               "EXPERIMENTS.md, Deviation 2); the tag *delta* is the\n"
               "comparable quantity.\n";
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Cli;
  std::optional<BenchOptions> Options = parseBenchOptions(Argc, Argv, Cli);
  if (!Options)
    return 1;

  ResultStore Paper =
      runBenchMatrix(paperStoreSpec(*Options), "paper", *Options);
  ResultStore Tags = runBenchMatrix(tagsStoreSpec(*Options), "tags", *Options);

  printBanner("Table 2: test program performance information "
              "(FirstFit baseline)",
              *Options);
  renderWorkloadTable(Paper, {std::begin(PaperWorkloads),
                              std::end(PaperWorkloads)},
                      /*ScaleColumn=*/true, *Options);
  std::cout
      << "Notes: instr/refs/object counts are measured at the run's scale "
         "and multiplied\nback up; heap KB is not scaled (live heaps are "
         "preserved by design, so it is\ndirectly comparable to the paper's "
         "Max Heap column). Scaled frees are chosen\nto end with the "
         "paper's surviving-object count, so freed(K) re-scaled "
         "slightly\novershoots the paper for scaled runs.\n";

  printBanner("Table 3: GhostScript input sets (FirstFit baseline)",
              *Options);
  renderWorkloadTable(Paper,
                      {WorkloadId::GsSmall, WorkloadId::GsMedium,
                       WorkloadId::Gs},
                      /*ScaleColumn=*/false, *Options);

  printBanner("Figure 1: percent of execution time in malloc/free "
              "(instruction counts, no cache penalty)",
              *Options);
  renderMallocTime(Paper, *Options);

  printBanner("Figure 2: page fault rate vs memory size, GhostScript",
              *Options);
  renderPageFaults(Paper, WorkloadId::Gs, Fig2MemoryKb, *Options);
  printBanner("Figure 3: page fault rate vs memory size, PTC", *Options);
  renderPageFaults(Paper, WorkloadId::Ptc, Fig3MemoryKb, *Options);

  printBanner("Figure 4: normalized execution time, 16K direct-mapped "
              "cache, 25-cycle penalty",
              *Options);
  renderNormalizedTime(Paper, 16, *Options);
  printBanner("Figure 5: normalized execution time, 64K direct-mapped "
              "cache, 25-cycle penalty",
              *Options);
  renderNormalizedTime(Paper, 64, *Options);

  printBanner("Figures 6/7/8: GhostScript data-cache miss rate vs cache size "
              "(direct-mapped, 32B blocks)",
              *Options);
  renderGsMissRate(Paper, *Options);

  printBanner("Table 4: estimated execution seconds, 16K direct-mapped "
              "cache ('?' = illegible in the scanned paper)",
              *Options);
  renderTimeTable(Paper, 16, PaperTable4, *Options);
  printBanner("Table 5: estimated execution seconds, 64K direct-mapped "
              "cache ('?' = illegible in the scanned paper)",
              *Options);
  renderTimeTable(Paper, 64, PaperTable5, *Options);

  printBanner("Table 6: boundary-tag cache pollution in GNU LOCAL, 64K "
              "direct-mapped cache",
              *Options);
  renderBoundaryTags(Tags, Paper, *Options);
  return 0;
}
