//===- bench/bench_cache_engines.cpp - Automatic engine vs CacheBank ------===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// Measures cache-simulation throughput (refs/sec delivered into the sink)
// of the engine a run's cache layer picks automatically (CacheSweep: the
// one-pass StackSim kernels where a family allows them) against per-config
// CacheBank simulation (one simulator per geometry) on the same
// pre-captured reference stream, for four sweep shapes:
//
//   paperdm    the paper's sweep: direct-mapped 16K..256K (5 members, the
//              ladder kernel)
//   assoc512   16K..256K at 512 sets, associativity 1..16 (5 members, the
//              stack kernel)
//   dense      every power-of-two size 2K..256K at 64 sets (8 members,
//              the stack kernel)
//   single16k  the paper's lone 16K config (1 member, a one-rung ladder;
//              one pass over one cache has nothing to amortize, so this
//              row only shows automatic selection never loses)
//
// The stream is captured once (gs-small under FirstFit, the experiment hot
// path's own reference mix) and replayed in AccessBatch-sized chunks, so
// the timed region is pure sink work — exactly what the engine choice
// changes. After every measurement the two engines' statistics are
// compared member by member, total and by source; any difference is fatal,
// making each bench run an equivalence check at production scale.
//
// Emits JSON (schema allocsim-bench-engines-v2) for the cache-engines CI
// job. The committed baseline (BENCH_cache_engines.json) is compared by
// tools/check_perf_baseline.py on the speedup ratios — automatic over
// CacheBank on the same machine and run — plus per-config "min_speedup"
// absolute floors. To refresh after an intentional engine change:
//
//   build/bench/bench_cache_engines --out BENCH_cache_engines.json
//
// then restore the min_speedup keys and commit (see DESIGN.md section 17).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "cache/StackSim.h"
#include "mem/AccessBatch.h"
#include "support/Error.h"
#include "trace/RefTrace.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

using namespace allocsim;

namespace {

/// One sweep shape under test.
struct EngineConfig {
  std::string Name;
  std::vector<CacheConfig> Family;
};

/// One CacheBank-vs-automatic measurement.
struct Measurement {
  std::string Name;
  uint64_t Refs = 0;
  double BankRefsPerSec = 0;
  double AutoRefsPerSec = 0;
  double speedup() const {
    return BankRefsPerSec > 0 ? AutoRefsPerSec / BankRefsPerSec : 0;
  }
};

/// Delivers the stream to \p Sink in AccessBatch-sized chunks and returns
/// the wall seconds of the sink work alone.
double replayInto(AccessSink &Sink, const std::vector<MemAccess> &Stream) {
  auto Start = std::chrono::steady_clock::now();
  size_t Offset = 0;
  while (Offset != Stream.size()) {
    size_t Count = std::min(AccessBatch::MaxCapacity, Stream.size() - Offset);
    Sink.accessBatch(Stream.data() + Offset, Count);
    Offset += Count;
  }
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

/// Asserts bit-exact agreement between the two engines' statistics for
/// every family member, total and by source.
void checkAgreement(const CacheBank &Bank, const CacheSweep &Auto,
                    const std::string &Name) {
  for (size_t I = 0; I != Bank.size(); ++I) {
    const CacheStats &Per = Bank.cache(I).stats();
    const CacheStats Dist = Auto.statsFor(I);
    bool Equal = Per.Accesses == Dist.Accesses && Per.Misses == Dist.Misses;
    for (unsigned S = 0; S != NumAccessSources; ++S)
      Equal = Equal && Per.AccessesBySource[S] == Dist.AccessesBySource[S] &&
              Per.MissesBySource[S] == Dist.MissesBySource[S];
    if (!Equal)
      reportFatalError("engine disagreement on '" + Name + "' member " +
                       std::to_string(I) + " (" +
                       Bank.cache(I).config().describe() + "): CacheBank " +
                       std::to_string(Per.Misses) + "/" +
                       std::to_string(Per.Accesses) + " vs automatic " +
                       std::to_string(Dist.Misses) + "/" +
                       std::to_string(Dist.Accesses));
  }
}

/// Best-of-N timing of both engines on the same stream, with the
/// equivalence assertion run on the first repetition's final state.
Measurement measure(const EngineConfig &Config,
                    const std::vector<MemAccess> &Stream, unsigned Reps) {
  Measurement Result;
  Result.Name = Config.Name;
  Result.Refs = Stream.size();
  double BankBest = 0, AutoBest = 0;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    CacheBank Bank;
    for (const CacheConfig &CacheConf : Config.Family)
      Bank.addCache(CacheConf);
    CacheSweep Auto(Config.Family);
    double BankSec = replayInto(Bank, Stream);
    double AutoSec = replayInto(Auto, Stream);
    if (Rep == 0)
      checkAgreement(Bank, Auto, Config.Name);
    BankBest = std::max(BankBest, double(Stream.size()) / BankSec);
    AutoBest = std::max(AutoBest, double(Stream.size()) / AutoSec);
  }
  Result.BankRefsPerSec = BankBest;
  Result.AutoRefsPerSec = AutoBest;
  return Result;
}

/// The dense family: 64 sets, 32B blocks, associativity 1..128 — every
/// power-of-two capacity from 2K to 256K out of one pass.
std::vector<CacheConfig> denseFamily() {
  std::vector<CacheConfig> Family;
  for (uint32_t Assoc = 1; Assoc <= 128; Assoc *= 2)
    Family.push_back(CacheConfig{64 * 32 * Assoc, 32, Assoc});
  return Family;
}

void writeJson(std::ostream &OS, const std::vector<Measurement> &Rows,
               bool Quick, const BenchOptions &Options) {
  OS << "{\n";
  OS << "  \"schema\": \"allocsim-bench-engines-v2\",\n";
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
                  "\"bank_refs_per_sec\": %.0f, "
                  "\"auto_refs_per_sec\": %.0f, \"speedup\": %.3f}",
                  Row.Name.c_str(),
                  static_cast<unsigned long long>(Row.Refs),
                  Row.BankRefsPerSec, Row.AutoRefsPerSec,
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

  printBanner("cache-engine throughput: per-config CacheBank vs the "
              "automatically chosen engine on a captured stream (gs-small, "
              "FirstFit)",
              *Options);

  // Both engines replay one record per reference: CollectingSink expands
  // the driver's spans.
  CollectingSink Words;
  {
    const std::vector<MemAccess> Spans = captureGsSmallStream(*Options);
    Words.accessBatch(Spans.data(), Spans.size());
  }
  const std::vector<MemAccess> &Stream = Words.records();
  const EngineConfig Configs[] = {
      {"paperdm", paperCacheSweep()},
      {"assoc512", assocCacheSweep()},
      {"dense", denseFamily()},
      {"single16k", {CacheConfig{16 * 1024, 32, 1}}},
  };

  std::vector<Measurement> Rows;
  for (const EngineConfig &Config : Configs)
    Rows.push_back(measure(Config, Stream, Reps));

  Table Out({"config", "refs(M)", "CacheBank Mref/s", "automatic Mref/s",
             "speedup"});
  for (const Measurement &Row : Rows) {
    Out.beginRow();
    Out.cell(Row.Name);
    Out.num(double(Row.Refs) / 1e6, 1);
    Out.num(Row.BankRefsPerSec / 1e6, 1);
    Out.num(Row.AutoRefsPerSec / 1e6, 1);
    Out.num(Row.speedup(), 2);
  }
  renderTable(Out, *Options);

  std::string OutPath = Cli.getString("out");
  if (!OutPath.empty() && OutPath != "-") {
    std::ofstream File(OutPath);
    if (!File) {
      std::cerr << "bench_cache_engines: cannot write '" << OutPath << "'\n";
      return 1;
    }
    writeJson(File, Rows, Quick, *Options);
  } else {
    writeJson(std::cout, Rows, Quick, *Options);
  }
  return 0;
}
