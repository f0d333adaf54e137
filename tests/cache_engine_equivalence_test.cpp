//===- tests/cache_engine_equivalence_test.cpp - One-pass vs CacheBank ----===//
//
// The exactness contract behind the one-pass cache engine: for every family
// onePassKernelFor accepts — direct-mapped ladders and shared-set-count LRU
// families — StackSim's derived statistics (total, split by AccessSource,
// and per-set miss profiles) must equal per-config CacheBank simulation
// *bit-exactly*. Checked at the sink level (synthesized streams over
// adversarial families, one record at a time and in chunks) and end to end
// (corpus scripts x all nine allocators, and the Figure 6-8 sweep through
// the workload engine), where the automatically chosen engine is compared
// with a CacheBank observing the same run's reference stream. Span records
// are checked too: the kernels probe a span once per block, and must match
// CacheBank fed the span's words one by one.
//
// A failure here means the one-pass engine and the reference simulators
// disagree; neither side is trusted over the other.
//
//===----------------------------------------------------------------------===//

#include "analyze/TraceLint.h"
#include "cache/StackSim.h"
#include "core/Lab.h"
#include "support/Rng.h"
#include "trace/RefTrace.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

using namespace allocsim;

namespace {

/// The paper's five allocators plus the two modern CacheLab backends.
std::vector<AllocatorKind> sevenAllocators() {
  std::vector<AllocatorKind> Kinds(PaperAllocators, PaperAllocators + 5);
  Kinds.push_back(AllocatorKind::BitmapFit);
  Kinds.push_back(AllocatorKind::SpaceFit);
  return Kinds;
}

/// Every allocator kind: the seven above plus BestFit and Custom.
std::vector<AllocatorKind> nineAllocators() {
  std::vector<AllocatorKind> Kinds = sevenAllocators();
  Kinds.push_back(AllocatorKind::BestFit);
  Kinds.push_back(AllocatorKind::Custom);
  return Kinds;
}

/// Stack-kernel families besides assocCacheSweep's 512 sets: a
/// fully-associative chain (1 set each — the inclusion property in its
/// purest form), and one that shares sets but skips powers.
std::vector<CacheConfig> fullyAssocFamily() {
  return {CacheConfig{512, 32, 16}, CacheConfig{1024, 32, 32},
          CacheConfig{2048, 32, 64}};
}

std::vector<CacheConfig> sparseFamily() {
  return {CacheConfig{16 * 1024, 32, 1}, CacheConfig{64 * 1024, 32, 4},
          CacheConfig{256 * 1024, 32, 16}};
}

/// Direct-mapped sweep of every power-of-two capacity in [MinKb, MaxKb].
std::vector<CacheConfig> directMappedSweep(uint32_t MinKb, uint32_t MaxKb,
                                           uint32_t BlockBytes) {
  std::vector<CacheConfig> Family;
  for (uint32_t Kb = MinKb; Kb <= MaxKb; Kb *= 2)
    Family.push_back(CacheConfig{Kb * 1024, BlockBytes, 1});
  return Family;
}

void expectStatsEqual(const CacheStats &Bank, const CacheStats &OnePass,
                      const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(Bank.Accesses, OnePass.Accesses);
  EXPECT_EQ(Bank.Misses, OnePass.Misses);
  for (unsigned S = 0; S != NumAccessSources; ++S) {
    EXPECT_EQ(Bank.AccessesBySource[S], OnePass.AccessesBySource[S])
        << "source " << S;
    EXPECT_EQ(Bank.MissesBySource[S], OnePass.MissesBySource[S])
        << "source " << S;
  }
}

/// Synthesizes a reference stream that exercises every dimension the frame
/// split and set mapping care about: all three sources, sizes that straddle
/// block boundaries, reuse at many distances (offsets within 32K for dense
/// reuse, within 1M so the largest caches matter too), and references that
/// run past the top of the 32-bit space.
std::vector<MemAccess> synthesizeStream(uint64_t Seed, size_t Count) {
  Rng R(Seed);
  std::vector<MemAccess> Stream;
  Stream.reserve(Count);
  const Addr Bases[] = {HeapBase, HeapBase + 4096, StackBase, 0xFFFFFFF0u};
  for (size_t I = 0; I != Count; ++I) {
    MemAccess Acc;
    const Addr Base = Bases[R.nextBelow(4)];
    const uint64_t Span = R.nextBool(0.7) ? 32 * 1024 : 1024 * 1024;
    Acc.Address = Base + static_cast<Addr>(R.nextBelow(Span));
    Acc.Size = static_cast<uint8_t>(1 + R.nextBelow(64));
    Acc.Kind = R.nextBool(0.3) ? AccessKind::Write : AccessKind::Read;
    Acc.Source = static_cast<AccessSource>(R.nextBelow(NumAccessSources));
    Stream.push_back(Acc);
  }
  return Stream;
}

/// Delivers \p Stream to CacheBank and StackSim — one record at a time and
/// in chunks — with set profiles on, and asserts member-by-member equality
/// of every derived statistic and every per-set miss count.
void checkFamilyOnStream(const std::vector<CacheConfig> &Family,
                         const std::vector<MemAccess> &Stream,
                         const std::string &What) {
  ASSERT_NE(onePassKernelFor(Family), OnePassKernel::None) << What;

  CacheBank SingleBank, ChunkedBank;
  for (const CacheConfig &Config : Family) {
    SingleBank.addCache(Config);
    ChunkedBank.addCache(Config);
  }
  StackSim SingleOne(Family), ChunkedOne(Family);
  for (size_t I = 0; I != Family.size(); ++I) {
    SingleBank.cache(I).enableSetProfile();
    ChunkedBank.cache(I).enableSetProfile();
  }
  SingleOne.enableSetProfile();
  ChunkedOne.enableSetProfile();

  for (const MemAccess &Acc : Stream) {
    SingleBank.access(Acc);
    SingleOne.access(Acc);
  }
  constexpr size_t Chunk = 256;
  for (size_t Offset = 0; Offset < Stream.size(); Offset += Chunk) {
    size_t Count = std::min(Chunk, Stream.size() - Offset);
    ChunkedBank.accessBatch(Stream.data() + Offset, Count);
    ChunkedOne.accessBatch(Stream.data() + Offset, Count);
  }

  for (size_t I = 0; I != Family.size(); ++I) {
    const std::string Member = What + ", member " + Family[I].describe();
    expectStatsEqual(SingleBank.cache(I).stats(), SingleOne.statsFor(I),
                     Member + " (one at a time)");
    expectStatsEqual(ChunkedBank.cache(I).stats(), ChunkedOne.statsFor(I),
                     Member + " (chunked)");
    EXPECT_EQ(SingleBank.cache(I).setMissProfile(),
              SingleOne.setMissProfile(I))
        << Member << " set profile (one at a time)";
    EXPECT_EQ(ChunkedBank.cache(I).setMissProfile(),
              ChunkedOne.setMissProfile(I))
        << Member << " set profile (chunked)";
  }
}

/// Span records mixed with single references, over the shapes the
/// kernels' per-block span probe must get right: ascending and descending
/// spans; spans inside one block and across many; spans of 300 to 3000
/// words, longer than a 1K cache, so one span evicts its own blocks; and
/// an ascending span ending at 0xFFFFFFFC plus a descending one starting
/// there.
std::vector<MemAccess> synthesizeSpanStream(uint64_t Seed, size_t Count) {
  Rng R(Seed);
  std::vector<MemAccess> Stream;
  const Addr Bases[] = {HeapBase, HeapBase + 4096, StackBase};
  for (size_t I = 0; I != Count; ++I) {
    MemAccess Acc;
    Acc.Kind = R.nextBool(0.3) ? AccessKind::Write : AccessKind::Read;
    Acc.Source = static_cast<AccessSource>(R.nextBelow(NumAccessSources));
    const Addr Base = Bases[R.nextBelow(std::size(Bases))] +
                      4 * static_cast<Addr>(R.nextBelow(64 * 1024));
    if (R.nextBool(0.25)) {
      Acc.Address = Base + static_cast<Addr>(R.nextBelow(4));
      Acc.Size = static_cast<uint8_t>(1 + R.nextBelow(16));
      Stream.push_back(Acc);
      continue;
    }
    const double Shape = R.nextDouble();
    const uint64_t Words = Shape < 0.05   ? 300 + R.nextBelow(2701)
                           : Shape < 0.25 ? 17 + R.nextBelow(240)
                                          : 2 + R.nextBelow(15);
    Acc.Words = static_cast<uint16_t>(Words);
    Acc.Direction = R.nextBool(0.5) ? SpanDirection::Descending
                                    : SpanDirection::Ascending;
    Acc.Address = Acc.Direction == SpanDirection::Ascending
                      ? Base
                      : Base + 4 * static_cast<Addr>(Words - 1);
    Stream.push_back(Acc);
  }
  MemAccess Top;
  Top.Words = 40;
  Top.Address = 0xFFFFFFFCu - 4 * 39;
  Stream.push_back(Top);
  Top.Address = 0xFFFFFFFCu;
  Top.Direction = SpanDirection::Descending;
  Stream.push_back(Top);
  return Stream;
}

/// Feeds \p Stream's spans to StackSim one record at a time and in chunks
/// of 256, and its word-by-word expansion to a CacheBank, all with set
/// profiles on; every member's statistics and per-set misses must agree.
void checkFamilyOnSpanStream(const std::vector<CacheConfig> &Family,
                             const std::vector<MemAccess> &Stream,
                             const std::string &What) {
  ASSERT_NE(onePassKernelFor(Family), OnePassKernel::None) << What;
  CollectingSink Expansion;
  Expansion.accessBatch(Stream.data(), Stream.size());
  const std::vector<MemAccess> &Words = Expansion.records();
  ASSERT_GT(Words.size(), Stream.size());

  CacheBank Bank;
  for (const CacheConfig &Config : Family)
    Bank.cache(Bank.addCache(Config)).enableSetProfile();
  StackSim SingleOne(Family), ChunkedOne(Family);
  SingleOne.enableSetProfile();
  ChunkedOne.enableSetProfile();

  constexpr size_t Chunk = 256;
  for (size_t Offset = 0; Offset < Words.size(); Offset += Chunk)
    Bank.accessBatch(Words.data() + Offset,
                     std::min(Chunk, Words.size() - Offset));
  for (const MemAccess &Acc : Stream)
    SingleOne.access(Acc);
  for (size_t Offset = 0; Offset < Stream.size(); Offset += Chunk)
    ChunkedOne.accessBatch(Stream.data() + Offset,
                           std::min(Chunk, Stream.size() - Offset));

  for (size_t I = 0; I != Family.size(); ++I) {
    const std::string Member = What + ", member " + Family[I].describe();
    expectStatsEqual(Bank.cache(I).stats(), SingleOne.statsFor(I),
                     Member + " (one span at a time)");
    expectStatsEqual(Bank.cache(I).stats(), ChunkedOne.statsFor(I),
                     Member + " (chunked spans)");
    EXPECT_EQ(Bank.cache(I).setMissProfile(), SingleOne.setMissProfile(I))
        << Member << " set profile (one span at a time)";
    EXPECT_EQ(Bank.cache(I).setMissProfile(), ChunkedOne.setMissProfile(I))
        << Member << " set profile (chunked spans)";
  }
}

std::vector<std::filesystem::path> corpusScripts() {
  std::vector<std::filesystem::path> Paths;
  for (const auto &Entry :
       std::filesystem::directory_iterator(ALLOCSIM_CORPUS_DIR))
    if (Entry.path().extension() == ".events")
      Paths.push_back(Entry.path());
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

std::vector<AllocEvent> loadScript(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In) << "cannot read " << Path;
  DiagEngine Diags;
  std::vector<LocatedAllocEvent> Located = lintTraceScript(In, Diags);
  EXPECT_EQ(Diags.errorCount(), 0u)
      << "corpus script must be sound: " << Diags.firstError();
  std::vector<AllocEvent> Events;
  Events.reserve(Located.size());
  for (const LocatedAllocEvent &Event : Located)
    Events.push_back(Event.Event);
  return Events;
}

/// Runs \p Config (whose cache layer picks its own engine), then the same
/// run with no cache layer, observed by a CacheBank over the same family;
/// asserts per-member bit-exactness of every statistic RunResult carries.
void checkRunAgainstBank(const ExperimentConfig &Config,
                         const std::string &What,
                         const std::vector<AllocEvent> *Script = nullptr) {
  CacheBank Bank;
  for (const CacheConfig &Cache : Config.Caches)
    Bank.addCache(Cache);
  ExperimentConfig Replay = Config;
  Replay.Caches.clear();

  RunResult Auto =
      Script ? runScriptExperiment(Config, *Script) : runExperiment(Config);
  RunResult Oracle = Script ? runScriptExperiment(Replay, *Script, &Bank)
                            : runExperiment(Replay, nullptr, &Bank);

  ASSERT_EQ(Auto.Caches.size(), Bank.size());
  EXPECT_EQ(Auto.TotalRefs, Oracle.TotalRefs);
  for (size_t I = 0; I != Bank.size(); ++I) {
    const std::string Member =
        What + ", member " + Auto.Caches[I].Config.describe();
    EXPECT_EQ(Auto.Caches[I].Config, Bank.cache(I).config());
    expectStatsEqual(Bank.cache(I).stats(), Auto.Caches[I].Stats, Member);
  }
}

} // namespace

TEST(CacheEngineEquivalenceTest, SynthesizedStreams) {
  const struct {
    const char *Name;
    std::vector<CacheConfig> Family;
  } Families[] = {
      // Stack kernel.
      {"assoc", assocCacheSweep()},
      {"fully-assoc", fullyAssocFamily()},
      {"sparse", sparseFamily()},
      // Ladder kernel.
      {"paper", paperCacheSweep()},
      {"out-of-order",
       {CacheConfig{64 * 1024, 32, 1}, CacheConfig{16 * 1024, 32, 1},
        CacheConfig{256 * 1024, 32, 1}}},
      {"non-adjacent",
       {CacheConfig{16 * 1024, 32, 1}, CacheConfig{128 * 1024, 32, 1}}},
      {"single", {CacheConfig{16 * 1024, 32, 1}}},
      {"16B blocks", directMappedSweep(16, 256, 16)},
      {"64B blocks", directMappedSweep(16, 256, 64)},
      {"nine rungs", directMappedSweep(2, 512, 32)},
  };
  for (const auto &Entry : Families)
    for (uint64_t Seed : {1u, 42u, 20260808u})
      checkFamilyOnStream(Entry.Family, synthesizeStream(Seed, 40000),
                          std::string(Entry.Name) + " seed " +
                              std::to_string(Seed));
}

TEST(CacheEngineEquivalenceTest, TinyStreamEdges) {
  for (const std::vector<CacheConfig> &Family :
       {paperCacheSweep(), assocCacheSweep()}) {
    checkFamilyOnStream(Family, {}, "empty stream");
    checkFamilyOnStream(Family, {MemAccess{HeapBase, 4}}, "one access");
    // A reference running past 4 GiB touches the frame below the boundary
    // and the one above it; it must not wrap to an empty range.
    MemAccess Wrap;
    Wrap.Address = 0xFFFFFFFFu;
    Wrap.Size = 8;
    checkFamilyOnStream(Family, {Wrap}, "wrapping access");
    CacheBank Bank;
    for (const CacheConfig &Config : Family)
      Bank.addCache(Config);
    Bank.access(Wrap);
    for (size_t I = 0; I != Bank.size(); ++I) {
      EXPECT_EQ(Bank.cache(I).stats().Accesses, 2u);
      EXPECT_EQ(Bank.cache(I).stats().Misses, 2u);
    }
  }
}

TEST(CacheEngineEquivalenceTest, SpanStreamsMatchExpansion) {
  // Every block size the geometry allows, from one word per block up: a
  // ladder of 1K..64K direct-mapped caches and a 64-set LRU family of 1 to
  // 8 ways, against CacheBank fed the same stream word by word.
  for (uint32_t Block = 4; Block <= 128; Block *= 2) {
    std::vector<CacheConfig> Lru;
    for (uint32_t Assoc = 1; Assoc <= 8; Assoc *= 2)
      Lru.push_back(CacheConfig{64 * Block * Assoc, Block, Assoc});
    const std::vector<MemAccess> Stream = synthesizeSpanStream(Block, 3000);
    const std::string Label = std::to_string(Block) + "B blocks";
    checkFamilyOnSpanStream(directMappedSweep(1, 64, Block), Stream,
                            "ladder, " + Label);
    checkFamilyOnSpanStream(Lru, Stream, "64-set LRU, " + Label);
  }
  const std::vector<MemAccess> Stream = synthesizeSpanStream(20261017, 3000);
  checkFamilyOnSpanStream(paperCacheSweep(), Stream, "paper sweep");
  checkFamilyOnSpanStream(assocCacheSweep(), Stream, "512-set LRU");
  checkFamilyOnSpanStream(fullyAssocFamily(), Stream, "fully associative");
}

TEST(CacheEngineEquivalenceTest, KernelChoicePinsFamilyShapes) {
  const struct {
    const char *Name;
    std::vector<CacheConfig> Family;
    OnePassKernel Expected;
  } Cases[] = {
      {"paper sweep", paperCacheSweep(), OnePassKernel::Ladder},
      {"out-of-order ladder",
       {CacheConfig{64 * 1024, 32, 1}, CacheConfig{16 * 1024, 32, 1},
        CacheConfig{256 * 1024, 32, 1}},
       OnePassKernel::Ladder},
      {"non-adjacent ladder",
       {CacheConfig{16 * 1024, 32, 1}, CacheConfig{128 * 1024, 32, 1}},
       OnePassKernel::Ladder},
      {"single direct-mapped", {CacheConfig{16 * 1024, 32, 1}},
       OnePassKernel::Ladder},
      {"nine rungs", directMappedSweep(2, 512, 32), OnePassKernel::Ladder},
      {"assoc family", assocCacheSweep(), OnePassKernel::Stack},
      {"fully associative", fullyAssocFamily(), OnePassKernel::Stack},
      {"direct-mapped + 2-way at 512 sets",
       {CacheConfig{16 * 1024, 32, 1}, CacheConfig{32 * 1024, 32, 2}},
       OnePassKernel::Stack},
      {"mixed 16K direct-mapped + 64K 2-way",
       {CacheConfig{16 * 1024, 32, 1}, CacheConfig{64 * 1024, 32, 2}},
       OnePassKernel::None},
      {"single LRU", {CacheConfig{32 * 1024, 32, 2}}, OnePassKernel::None},
      {"empty", {}, OnePassKernel::None},
  };
  for (const auto &Case : Cases) {
    SCOPED_TRACE(Case.Name);
    EXPECT_EQ(onePassKernelFor(Case.Family), Case.Expected);
    // The run's cache layer takes exactly this choice.
    EXPECT_EQ(CacheSweep(Case.Family).kernel(), Case.Expected);
  }
}

TEST(CacheEngineEquivalenceTest, CorpusScriptsAllAllocators) {
  for (const auto &Path : corpusScripts()) {
    std::vector<AllocEvent> Events = loadScript(Path);
    for (AllocatorKind Allocator : nineAllocators()) {
      for (const std::vector<CacheConfig> &Family :
           {paperCacheSweep(), assocCacheSweep()}) {
        SCOPED_TRACE(Path.filename().string() + " vs " +
                     allocatorKindName(Allocator));
        ExperimentConfig Config;
        Config.Allocator = Allocator;
        Config.Caches = Family;
        checkRunAgainstBank(Config, Path.filename().string(), &Events);
      }
    }
  }
}

TEST(CacheEngineEquivalenceTest, Fig678SweepAllSevenAllocators) {
  // The acceptance sweep: the Figure 6-8 direct-mapped family under every
  // allocator kind, through the real workload engine (reduced scale — the
  // reference mix is identical in kind, just shorter).
  for (AllocatorKind Allocator : sevenAllocators()) {
    SCOPED_TRACE(allocatorKindName(Allocator));
    ExperimentConfig Config;
    Config.Workload = WorkloadId::GsSmall;
    Config.Allocator = Allocator;
    Config.Engine.Scale = 64;
    Config.Caches = paperCacheSweep();
    checkRunAgainstBank(Config, allocatorKindName(Allocator));
  }
}

TEST(CacheEngineEquivalenceTest, FullyAssociativeEndToEnd) {
  // Assoc == numBlocks() members (one set each): the degenerate geometry
  // meets the inclusion property head on.
  ExperimentConfig Config;
  Config.Workload = WorkloadId::Espresso;
  Config.Engine.Scale = 64;
  Config.Caches = fullyAssocFamily();
  checkRunAgainstBank(Config, "fully-assoc end-to-end");
}

TEST(CacheEngineEquivalenceTest, SetMissTelemetryMatches) {
  // Under full telemetry the chosen engine's cache.<I>.set_misses
  // histograms must be exactly those a CacheBank's per-set profiles give.
  std::vector<AllocEvent> Events = loadScript(corpusScripts().front());
  for (const std::vector<CacheConfig> &Family :
       {paperCacheSweep(), assocCacheSweep()}) {
    ExperimentConfig Config;
    Config.Allocator = AllocatorKind::FirstFit;
    Config.Caches = Family;
    Config.Telemetry = TelemetryLevel::Full;
    RunResult Auto = runScriptExperiment(Config, Events);

    CacheBank Bank;
    for (const CacheConfig &Cache : Family)
      Bank.cache(Bank.addCache(Cache)).enableSetProfile();
    ExperimentConfig Replay = Config;
    Replay.Caches.clear();
    Replay.Telemetry = TelemetryLevel::Off;
    runScriptExperiment(Replay, Events, &Bank);

    for (size_t I = 0; I != Family.size(); ++I) {
      TelemetryHistogram Expected;
      for (uint64_t Misses : Bank.cache(I).setMissProfile())
        Expected.record(Misses);
      std::string Name = "cache." + std::to_string(I) + ".set_misses";
      EXPECT_EQ(Auto.Telemetry.histogram(Name), Expected.snapshot())
          << Name << " of " << Family[I].describe();
    }
  }
}

TEST(CacheEngineEquivalenceTest, FamilyProblemDiagnostics) {
  // Ill-formed families get no one-pass kernel, so the cache layer hands
  // them to CacheBank, whose checks diagnose them.
  EXPECT_EQ(onePassKernelFor({}), OnePassKernel::None);
  // Mixed block sizes, in either shape.
  EXPECT_EQ(onePassKernelFor({CacheConfig{16 * 1024, 32, 1},
                              CacheConfig{32 * 1024, 64, 1}}),
            OnePassKernel::None);
  EXPECT_EQ(onePassKernelFor({CacheConfig{16 * 1024, 32, 1},
                              CacheConfig{32 * 1024, 64, 2}}),
            OnePassKernel::None);
  // Duplicates.
  EXPECT_EQ(onePassKernelFor({CacheConfig{16 * 1024, 32, 1},
                              CacheConfig{16 * 1024, 32, 1}}),
            OnePassKernel::None);
  EXPECT_EQ(onePassKernelFor({CacheConfig{32 * 1024, 32, 2},
                              CacheConfig{32 * 1024, 32, 2}}),
            OnePassKernel::None);
  // Invalid member.
  EXPECT_EQ(onePassKernelFor({CacheConfig{16 * 1024, 0, 1}}),
            OnePassKernel::None);
}
