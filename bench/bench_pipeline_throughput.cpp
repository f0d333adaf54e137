//===- bench/bench_pipeline_throughput.cpp - Batched pipeline speed -------===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// Measures end-to-end reference-pipeline throughput (refs/sec: workload
// synthesis + allocator simulation + sink delivery, the whole experiment
// hot path) under scalar delivery (a capacity-1 bus) and the default
// batched bus, for the sink configurations the paper's studies actually
// run:
//
//   multicache    the Figure 6-8 sweep: every paper cache geometry at once
//   cache+paging  one 16K cache plus the page-fault simulator (Fig 4/5 +
//                 Fig 2/3 shape)
//   paging        the page simulator alone (Figure 2-3)
//   trace         a binary trace writer to a discarding stream
//   bare          no sinks: counter-only upper bound on the event engine
//
// Emits the summary as JSON (schema allocsim-bench-pipeline-v1) for the
// perf-smoke CI job. The committed baseline at the repo root
// (BENCH_pipeline.json) is compared by tools/check_perf_baseline.py on the
// *speedup ratios* — batched over scalar on the same machine and run —
// which is the hardware-independent signal; absolute refs/sec are recorded
// for human eyes only. To refresh the baseline after an intentional
// pipeline change:
//
//   build/bench/bench_pipeline_throughput --out BENCH_pipeline.json
//
// and commit the result (see DESIGN.md section 10).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Error.h"
#include "trace/RefTrace.h"
#include "vm/PageSim.h"
#include "workload/Driver.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <ostream>
#include <streambuf>
#include <vector>

using namespace allocsim;

namespace {

/// Discards everything written to it; lets the trace-writer configuration
/// measure serialization cost without filesystem noise.
class NullStreamBuf : public std::streambuf {
protected:
  int overflow(int Ch) override { return Ch; }
  std::streamsize xsputn(const char *, std::streamsize Count) override {
    return Count;
  }
};

/// One sink configuration under test.
struct PipelineConfig {
  std::string Name;
  bool MultiCache = false;
  bool SingleCache = false;
  bool Paging = false;
  bool Trace = false;
};

/// One scalar-vs-batched measurement.
struct Measurement {
  std::string Name;
  uint64_t Refs = 0;
  double ScalarRefsPerSec = 0;
  double BatchedRefsPerSec = 0;
  double speedup() const {
    return ScalarRefsPerSec > 0 ? BatchedRefsPerSec / ScalarRefsPerSec : 0;
  }
};

/// Runs the full pipeline once and returns (refs, seconds). The timed
/// region covers everything an experiment's hot loop does: event
/// synthesis, allocator execution, reference emission, and sink delivery.
std::pair<uint64_t, double> runOnce(const PipelineConfig &Config,
                                    bool Batched,
                                    const BenchOptions &Options) {
  MemoryBus Bus;
  if (!Batched)
    Bus.setBatchCapacity(1);

  CacheBank Caches;
  if (Config.MultiCache)
    for (const CacheConfig &CacheConf : paperCacheSweep())
      Caches.addCache(CacheConf);
  if (Config.SingleCache)
    Caches.addCache(CacheConfig{16 * 1024, 32, 1});
  if (!Caches.empty())
    Bus.attach(&Caches);

  std::unique_ptr<PageSim> Paging;
  if (Config.Paging) {
    Paging = std::make_unique<PageSim>(4096);
    Bus.attach(Paging.get());
  }

  NullStreamBuf NullBuf;
  std::ostream NullStream(&NullBuf);
  std::unique_ptr<BinaryTraceWriter> Writer;
  if (Config.Trace) {
    Writer = std::make_unique<BinaryTraceWriter>(NullStream);
    Bus.attach(Writer.get());
  }

  SimHeap Heap(Bus);
  CostModel Cost;
  std::unique_ptr<Allocator> Alloc =
      createAllocator(AllocatorKind::FirstFit, Heap, Cost);
  const AppProfile &Profile = getProfile(WorkloadId::GsSmall);
  EngineOptions EngineOpts;
  EngineOpts.Scale = Options.Scale;
  EngineOpts.Seed = Options.Seed;
  WorkloadEngine Engine(Profile, EngineOpts);
  Driver Drive(*Alloc, Bus, Cost, Profile.instrPerRef());

  auto Start = std::chrono::steady_clock::now();
  Engine.generate([&](const AllocEvent &Event) { Drive.execute(Event); });
  Bus.flush();
  auto End = std::chrono::steady_clock::now();
  double Seconds = std::chrono::duration<double>(End - Start).count();
  return {Bus.totalAccesses(), Seconds};
}

/// Best-of-N timing: the minimum wall time is the least-noisy estimate of
/// the pipeline's actual cost.
Measurement measure(const PipelineConfig &Config, unsigned Reps,
                    const BenchOptions &Options) {
  Measurement Result;
  Result.Name = Config.Name;
  double ScalarBest = 0, BatchedBest = 0;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    auto [Refs, ScalarSec] = runOnce(Config, /*Batched=*/false, Options);
    auto [RefsB, BatchedSec] = runOnce(Config, /*Batched=*/true, Options);
    if (Refs != RefsB)
      reportFatalError("batched run emitted a different reference count");
    Result.Refs = Refs;
    double Scalar = double(Refs) / ScalarSec;
    double Batched = double(Refs) / BatchedSec;
    ScalarBest = std::max(ScalarBest, Scalar);
    BatchedBest = std::max(BatchedBest, Batched);
  }
  Result.ScalarRefsPerSec = ScalarBest;
  Result.BatchedRefsPerSec = BatchedBest;
  return Result;
}

void writeJson(std::ostream &OS, const std::vector<Measurement> &Rows,
               bool Quick, const BenchOptions &Options) {
  OS << "{\n";
  OS << "  \"schema\": \"allocsim-bench-pipeline-v1\",\n";
  OS << "  \"quick\": " << (Quick ? "true" : "false") << ",\n";
  OS << "  \"scale\": " << Options.Scale << ",\n";
  OS << "  \"seed\": " << Options.Seed << ",\n";
  OS << "  \"workload\": \"gs-small\",\n";
  OS << "  \"configs\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Measurement &Row = Rows[I];
    char Buffer[256];
    std::snprintf(Buffer, sizeof(Buffer),
                  "    {\"name\": \"%s\", \"refs\": %llu, "
                  "\"scalar_refs_per_sec\": %.0f, "
                  "\"batched_refs_per_sec\": %.0f, \"speedup\": %.3f}",
                  Row.Name.c_str(),
                  static_cast<unsigned long long>(Row.Refs),
                  Row.ScalarRefsPerSec, Row.BatchedRefsPerSec,
                  Row.speedup());
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
  unsigned Reps = Quick ? 2 : 4;

  printBanner("reference-pipeline throughput: scalar vs batched delivery "
              "(gs-small, FirstFit)",
              *Options);

  const PipelineConfig Configs[] = {
      {"multicache", /*MultiCache=*/true, false, false, false},
      {"cache+paging", false, /*SingleCache=*/true, /*Paging=*/true, false},
      {"paging", false, false, /*Paging=*/true, false},
      {"trace", false, false, false, /*Trace=*/true},
      {"bare", false, false, false, false},
  };

  std::vector<Measurement> Rows;
  for (const PipelineConfig &Config : Configs)
    Rows.push_back(measure(Config, Reps, *Options));

  Table Out({"config", "refs(M)", "scalar Mref/s", "batched Mref/s",
             "speedup"});
  for (const Measurement &Row : Rows) {
    Out.beginRow();
    Out.cell(Row.Name);
    Out.num(double(Row.Refs) / 1e6, 1);
    Out.num(Row.ScalarRefsPerSec / 1e6, 1);
    Out.num(Row.BatchedRefsPerSec / 1e6, 1);
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
