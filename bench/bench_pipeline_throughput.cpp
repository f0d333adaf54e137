//===- bench/bench_pipeline_throughput.cpp - Span vs expanded delivery ----===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// Measures what reference spans buy the production sinks. The driver emits
// its object and stack sweeps as span records (MemAccess.h), and the fast
// sinks handle a span once per cache block or page. This bench captures one
// run's record stream (gs-small under FirstFit), expands it word by word,
// and replays both forms, in AccessBatch-sized chunks, into fresh copies of
// each production sink set:
//
//   ladder         the Figure 6-8 sweep: CacheSweep over the paper's
//                  16K..256K direct-mapped caches (the ladder kernel)
//   ladder+paging  the same sweep plus the page-fault simulator
//   paging         the page simulator alone (Figure 2-3)
//   assoc512       CacheSweep over 512-set 1..16-way LRU (the stack kernel)
//
// Both replays run in one process on one stream, so their ratio (span
// refs/sec over expanded refs/sec, references counted as words) is the
// hardware-independent signal. A sink that handled spans word by word
// would score about 1. After every measurement the two replays' results
// are compared; any difference is fatal, so each run is also an
// equivalence check.
//
// Emits the summary as JSON (schema allocsim-bench-pipeline-v2) for the
// perf-smoke CI job. tools/check_perf_baseline.py compares the speedup
// ratios with the committed baseline at the repo root (BENCH_pipeline.json);
// absolute refs/sec are for human eyes only. To refresh the baseline after
// an intentional pipeline change:
//
//   build/bench/bench_pipeline_throughput --out BENCH_pipeline.json
//
// and commit the result (see DESIGN.md section 10).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "cache/StackSim.h"
#include "support/Error.h"
#include "trace/RefTrace.h"
#include "vm/PageSim.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

using namespace allocsim;

namespace {

/// One production sink set under test.
struct SinkSet {
  std::string Name;
  std::vector<CacheConfig> Caches;
  bool Paging = false;
};

/// Fresh sinks for one replay, and what they computed.
class SinkInstance {
public:
  explicit SinkInstance(const SinkSet &Set) : Sweep(Set.Caches) {
    if (!Sweep.empty())
      Sinks.push_back(&Sweep);
    if (Set.Paging) {
      Paging = std::make_unique<PageSim>(4096);
      Sinks.push_back(Paging.get());
    }
  }

  /// Delivers \p Stream in AccessBatch-sized chunks; returns the wall
  /// seconds of the sink work alone.
  double replay(const std::vector<MemAccess> &Stream) {
    auto Start = std::chrono::steady_clock::now();
    for (size_t Offset = 0; Offset < Stream.size();
         Offset += AccessBatch::MaxCapacity) {
      const size_t Count =
          std::min(AccessBatch::MaxCapacity, Stream.size() - Offset);
      for (AccessSink *Sink : Sinks)
        Sink->accessBatch(Stream.data() + Offset, Count);
    }
    auto End = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(End - Start).count();
  }

  /// Every count the sinks report, flattened for comparison.
  std::vector<uint64_t> results() const {
    std::vector<uint64_t> Out;
    for (size_t I = 0; I != Sweep.size(); ++I) {
      const CacheStats Stats = Sweep.statsFor(I);
      Out.push_back(Stats.Accesses);
      Out.push_back(Stats.Misses);
      Out.insert(Out.end(), Stats.MissesBySource.begin(),
                 Stats.MissesBySource.end());
    }
    if (Paging) {
      Out.push_back(Paging->references());
      Out.push_back(Paging->zeroDistanceHits());
      for (uint64_t Pages = 1; Pages <= 4096; Pages *= 2)
        Out.push_back(Paging->faults(Pages));
    }
    return Out;
  }

private:
  CacheSweep Sweep;
  std::unique_ptr<PageSim> Paging;
  std::vector<AccessSink *> Sinks;
};

/// One span-vs-expanded measurement.
struct Measurement {
  std::string Name;
  uint64_t Refs = 0;
  uint64_t Records = 0;
  double ExpandedRefsPerSec = 0;
  double SpanRefsPerSec = 0;
  double speedup() const {
    return ExpandedRefsPerSec > 0 ? SpanRefsPerSec / ExpandedRefsPerSec : 0;
  }
};

/// Best-of-N timing of both replays: the minimum wall time is the
/// least-noisy estimate of a sink's actual cost.
Measurement measure(const SinkSet &Set, const std::vector<MemAccess> &Spans,
                    const std::vector<MemAccess> &Expanded, unsigned Reps) {
  Measurement Result;
  Result.Name = Set.Name;
  Result.Refs = Expanded.size();
  Result.Records = Spans.size();
  const double Refs = double(Expanded.size());
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    SinkInstance ExpandedSinks(Set), SpanSinks(Set);
    const double ExpandedSec = ExpandedSinks.replay(Expanded);
    const double SpanSec = SpanSinks.replay(Spans);
    if (Rep == 0 && ExpandedSinks.results() != SpanSinks.results())
      reportFatalError("span and expanded replays disagree on '" + Set.Name +
                       "'");
    Result.ExpandedRefsPerSec =
        std::max(Result.ExpandedRefsPerSec, Refs / ExpandedSec);
    Result.SpanRefsPerSec = std::max(Result.SpanRefsPerSec, Refs / SpanSec);
  }
  return Result;
}

void writeJson(std::ostream &OS, const std::vector<Measurement> &Rows,
               bool Quick, const BenchOptions &Options) {
  OS << "{\n";
  OS << "  \"schema\": \"allocsim-bench-pipeline-v2\",\n";
  OS << "  \"quick\": " << (Quick ? "true" : "false") << ",\n";
  OS << "  \"scale\": " << Options.Scale << ",\n";
  OS << "  \"seed\": " << Options.Seed << ",\n";
  OS << "  \"workload\": \"gs-small\",\n";
  OS << "  \"configs\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Measurement &Row = Rows[I];
    char Buffer[256];
    std::snprintf(Buffer, sizeof(Buffer),
                  "    {\"name\": \"%s\", \"refs\": %llu, \"records\": %llu, "
                  "\"expanded_refs_per_sec\": %.0f, "
                  "\"span_refs_per_sec\": %.0f, \"speedup\": %.3f}",
                  Row.Name.c_str(),
                  static_cast<unsigned long long>(Row.Refs),
                  static_cast<unsigned long long>(Row.Records),
                  Row.ExpandedRefsPerSec, Row.SpanRefsPerSec, Row.speedup());
    OS << Buffer << (I + 1 == Rows.size() ? "\n" : ",\n");
  }
  OS << "  ]\n";
  OS << "}\n";
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Cli;
  Cli.addFlag("quick", "false",
              "CI mode: fewer repetitions at a smaller scale");
  Cli.addFlag("out", "",
              "write the JSON report here ('-' or empty = stdout only)");
  std::optional<BenchOptions> Options = parseBenchOptions(Argc, Argv, Cli);
  if (!Options)
    return 0;
  bool Quick = Cli.getBool("quick");
  if (Quick && Options->Scale == 8)
    Options->Scale = 16; // smaller run, same machinery
  unsigned Reps = Quick ? 3 : 5;

  printBanner("reference-pipeline throughput: span records vs their "
              "word-by-word expansion (gs-small, FirstFit)",
              *Options);

  const std::vector<MemAccess> Spans = captureGsSmallStream(*Options);
  CollectingSink Words;
  Words.accessBatch(Spans.data(), Spans.size());
  const std::vector<MemAccess> &Expanded = Words.records();

  const SinkSet Sets[] = {
      {"ladder", paperCacheSweep(), false},
      {"ladder+paging", paperCacheSweep(), true},
      {"paging", {}, true},
      {"assoc512", assocCacheSweep(), false},
  };
  std::vector<Measurement> Rows;
  for (const SinkSet &Set : Sets)
    Rows.push_back(measure(Set, Spans, Expanded, Reps));

  Table Out({"sinks", "refs(M)", "records(M)", "expanded Mref/s",
             "span Mref/s", "speedup"});
  for (const Measurement &Row : Rows) {
    Out.beginRow();
    Out.cell(Row.Name);
    Out.num(double(Row.Refs) / 1e6, 1);
    Out.num(double(Row.Records) / 1e6, 2);
    Out.num(Row.ExpandedRefsPerSec / 1e6, 1);
    Out.num(Row.SpanRefsPerSec / 1e6, 1);
    Out.num(Row.speedup(), 2);
  }
  renderTable(Out, *Options);

  std::string OutPath = Cli.getString("out");
  if (!OutPath.empty() && OutPath != "-") {
    std::ofstream File(OutPath);
    if (!File) {
      std::cerr << "bench_pipeline_throughput: cannot write '" << OutPath
                << "'\n";
      return 1;
    }
    writeJson(File, Rows, Quick, *Options);
  } else {
    writeJson(std::cout, Rows, Quick, *Options);
  }
  return 0;
}
