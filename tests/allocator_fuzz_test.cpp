//===- tests/allocator_fuzz_test.cpp - Differential allocator fuzzing -----===//
//
// Seeded randomized differential fuzzing of the paper allocators through the
// batched reference pipeline. Each case synthesizes a random but
// well-formed malloc/free/touch script from a fixed SplitMix64 seed,
// replays it against every allocator with full heap checking enabled
// (ShadowHeap byte-state validation on every reference plus periodic
// invariant walks), and requires:
//
//   * zero heap-integrity violations — a violation here means either an
//     allocator bug or a batching bug that reordered references across an
//     allocator state transition;
//   * bit-identical bus tallies, cache statistics, and checker verdicts
//     between a capacity-1 bus (scalar delivery, one record per batch) and
//     the default batched bus on the same script — the differential half
//     of the test.
//
// Seeds are fixed so failures replay deterministically: rerun the one
// (seed, allocator) pair that fired, and the identical stream re-executes.
//
//===----------------------------------------------------------------------===//

#include "cache/CacheSim.h"
#include "check/HeapCheck.h"
#include "core/Lab.h"
#include "support/Rng.h"
#include "trace/AllocEvents.h"
#include "vm/PageSim.h"
#include "workload/Driver.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace allocsim;

namespace {

/// Synthesizes a well-formed random event script: mallocs skewed toward the
/// small sizes the paper's programs request, frees of random live objects,
/// and word touches within live objects (the only ranges an application may
/// legally reference).
std::vector<AllocEvent> synthesizeScript(uint64_t Seed, size_t Operations) {
  SplitMix64 Rand(Seed);
  std::vector<AllocEvent> Events;
  std::vector<std::pair<uint32_t, uint32_t>> Live; // (id, words)
  uint32_t NextId = 1;

  for (size_t Op = 0; Op != Operations; ++Op) {
    uint64_t Roll = Rand.next() % 100;
    if (Live.empty() || Roll < 45) {
      // Malloc: 1..16 words mostly, with an occasional large object.
      uint32_t Size = 4 + static_cast<uint32_t>(Rand.next() % 64);
      if (Rand.next() % 16 == 0)
        Size = 64 + static_cast<uint32_t>(Rand.next() % 4096);
      Events.push_back(AllocEvent::makeMalloc(NextId, Size));
      Live.push_back({NextId, (Size + 3) / 4});
      ++NextId;
    } else if (Roll < 75) {
      // Touch a random live object, sometimes past its end (the driver
      // wraps, staying inside the object's words).
      auto [Id, Words] = Live[Rand.next() % Live.size()];
      uint32_t Touch = 1 + static_cast<uint32_t>(Rand.next() % (2 * Words));
      AccessKind Kind =
          (Rand.next() % 2) ? AccessKind::Write : AccessKind::Read;
      Events.push_back(AllocEvent::makeTouch(Id, Touch, Kind));
    } else if (Roll < 85) {
      Events.push_back(AllocEvent::makeStackTouch(
          1 + static_cast<uint32_t>(Rand.next() % 32),
          (Rand.next() % 2) ? AccessKind::Write : AccessKind::Read));
    } else {
      size_t Victim = Rand.next() % Live.size();
      Events.push_back(AllocEvent::makeFree(Live[Victim].first));
      Live[Victim] = Live.back();
      Live.pop_back();
    }
  }
  // Drain: free everything still live so end-of-run invariants see an empty
  // heap alongside whatever free-structure the allocator built.
  for (auto [Id, Words] : Live)
    Events.push_back(AllocEvent::makeFree(Id));
  return Events;
}

/// The observable outcome of one replay: everything the differential
/// comparison asserts on.
struct FuzzOutcome {
  uint64_t TotalRefs = 0;
  uint64_t AppRefs = 0;
  uint64_t AllocRefs = 0;
  uint64_t CacheAccesses = 0;
  uint64_t CacheMisses = 0;
  uint64_t PageReferences = 0;
  uint64_t DistinctPages = 0;
  uint64_t Violations = 0;
  uint64_t Walks = 0;
  uint64_t FailedMallocs = 0;
  uint64_t DroppedEvents = 0;
  std::vector<std::string> Reports;

  bool operator==(const FuzzOutcome &Other) const = default;
};

/// Replays \p Events against a fresh allocator of kind \p Kind with full
/// checking, on the default batched bus or a capacity-1 (scalar) one.
/// \p CapacityBytes, when not UINT64_MAX, soft-limits heap growth past the
/// allocator's static area so the stream runs into graceful OOM mid-flight.
FuzzOutcome replay(const std::vector<AllocEvent> &Events, AllocatorKind Kind,
                   bool Batched, uint64_t CapacityBytes = UINT64_MAX) {
  MemoryBus Bus;
  if (!Batched)
    Bus.setBatchCapacity(1);

  CacheBank Caches;
  Caches.addCache(CacheConfig{16 * 1024, 32, 1});
  Bus.attach(&Caches);
  PageSim Paging(4096);
  Bus.attach(&Paging);

  SimHeap Heap(Bus);
  CostModel Cost;
  std::unique_ptr<Allocator> Alloc = createAllocator(Kind, Heap, Cost);

  CheckPolicy Policy;
  Policy.Level = CheckLevel::Full;
  Policy.IntervalOps = 32;
  Policy.AbortOnViolation = false;
  HeapCheck Check(Policy, Heap, Bus);
  Check.attachAllocator(*Alloc);

  if (CapacityBytes != UINT64_MAX)
    Heap.setSoftLimit(static_cast<uint64_t>(Heap.heapBytes()) +
                      CapacityBytes);

  Driver Drive(*Alloc, Bus, Cost, /*InstrPerRef=*/3.0);
  Drive.setHeapCheck(&Check);
  for (const AllocEvent &Event : Events)
    Drive.execute(Event);
  Bus.flush();
  Check.finalCheck();

  FuzzOutcome Outcome;
  Outcome.TotalRefs = Bus.totalAccesses();
  Outcome.AppRefs = Bus.accessesFrom(AccessSource::Application);
  Outcome.AllocRefs = Bus.accessesFrom(AccessSource::Allocator);
  Outcome.CacheAccesses = Caches.cache(0).stats().Accesses;
  Outcome.CacheMisses = Caches.cache(0).stats().Misses;
  Outcome.PageReferences = Paging.references();
  Outcome.DistinctPages = Paging.distinctPages();
  Outcome.Violations = Check.violationCount();
  Outcome.Walks = Check.walksRun();
  Outcome.FailedMallocs = Alloc->stats().FailedMallocs;
  Outcome.DroppedEvents = Drive.droppedEvents();
  for (const CheckViolation &V : Check.violations())
    Outcome.Reports.push_back(V.message());
  return Outcome;
}

/// The fixed fuzz corpus: deliberately arbitrary 64-bit constants so every
/// CI run executes the identical streams.
constexpr uint64_t FuzzSeeds[] = {
    0x9e3779b97f4a7c15ULL, 0xdeadbeefcafef00dULL, 0x0123456789abcdefULL,
    0xa5a5a5a5a5a5a5a5ULL, 0x1592932958ULL,
};

} // namespace

TEST(AllocatorFuzzTest, ScriptsAreWellFormed) {
  for (uint64_t Seed : FuzzSeeds) {
    std::vector<AllocEvent> Events = synthesizeScript(Seed, 2000);
    std::string WhyNot;
    EXPECT_TRUE(validateAllocEvents(Events, &WhyNot)) << WhyNot;
  }
}

TEST(AllocatorFuzzTest, NoViolationsUnderFullCheck) {
  for (AllocatorKind Kind : PaperAllocators) {
    for (uint64_t Seed : FuzzSeeds) {
      SCOPED_TRACE(std::string(allocatorKindName(Kind)) + "/seed=" +
                   std::to_string(Seed));
      std::vector<AllocEvent> Events = synthesizeScript(Seed, 2000);
      FuzzOutcome Outcome = replay(Events, Kind, /*Batched=*/true);
      EXPECT_EQ(Outcome.Violations, 0u)
          << (Outcome.Reports.empty() ? std::string("(no report)")
                                      : Outcome.Reports.front());
      EXPECT_GT(Outcome.Walks, 0u);
      EXPECT_GT(Outcome.TotalRefs, 0u);
    }
  }
}

TEST(AllocatorFuzzTest, BatchedMatchesScalarDifferentially) {
  // The differential core: the same stream under both delivery modes must
  // produce identical tallies, cache statistics, page behaviour, and
  // checker verdicts for every allocator.
  for (AllocatorKind Kind : PaperAllocators) {
    for (uint64_t Seed : FuzzSeeds) {
      SCOPED_TRACE(std::string(allocatorKindName(Kind)) + "/seed=" +
                   std::to_string(Seed));
      std::vector<AllocEvent> Events = synthesizeScript(Seed, 2000);
      FuzzOutcome Batched = replay(Events, Kind, /*Batched=*/true);
      FuzzOutcome Scalar = replay(Events, Kind, /*Batched=*/false);
      EXPECT_EQ(Batched, Scalar);
    }
  }
}

TEST(AllocatorFuzzTest, CapacityLimitedRunsStayDifferential) {
  // FaultLab's OOM axis, fuzzed: the same stream replayed under a tight
  // heap capacity must (a) hit graceful malloc failures, (b) stay free of
  // integrity violations — a failed malloc may not corrupt what was already
  // built — and (c) remain bit-identical between batched and scalar
  // delivery, failed objects and dropped events included.
  for (AllocatorKind Kind : PaperAllocators) {
    bool SawFailures = false;
    for (uint64_t Seed : FuzzSeeds) {
      // A seed-derived onset past the static area: tight enough that the
      // 2000-op stream (live set tens of KB) runs out mid-flight.
      uint64_t Capacity = 8192 + (SplitMix64(Seed).next() % 32768);
      SCOPED_TRACE(std::string(allocatorKindName(Kind)) + "/seed=" +
                   std::to_string(Seed) + "/capacity=" +
                   std::to_string(Capacity));
      std::vector<AllocEvent> Events = synthesizeScript(Seed, 2000);
      FuzzOutcome Batched = replay(Events, Kind, /*Batched=*/true, Capacity);
      EXPECT_EQ(Batched.Violations, 0u)
          << (Batched.Reports.empty() ? std::string("(no report)")
                                      : Batched.Reports.front());
      FuzzOutcome Scalar = replay(Events, Kind, /*Batched=*/false, Capacity);
      EXPECT_EQ(Batched, Scalar);
      if (Batched.FailedMallocs > 0) {
        SawFailures = true;
        // Every failed object's later touches and its free are dropped,
        // so drops can only exist alongside failures.
        EXPECT_GT(Batched.DroppedEvents, 0u);
      } else {
        EXPECT_EQ(Batched.DroppedEvents, 0u);
      }
    }
    EXPECT_TRUE(SawFailures)
        << allocatorKindName(Kind)
        << ": no seed ran out of heap — capacities too generous";
  }
}

TEST(AllocatorFuzzTest, UnlimitedCapacityIsTheDefaultBehaviour) {
  // Passing an effectively-unlimited capacity must not perturb the run:
  // bit-identical to the no-limit replay, with zero failures.
  std::vector<AllocEvent> Events = synthesizeScript(FuzzSeeds[0], 2000);
  for (AllocatorKind Kind : PaperAllocators) {
    SCOPED_TRACE(allocatorKindName(Kind));
    FuzzOutcome Unlimited = replay(Events, Kind, /*Batched=*/true);
    FuzzOutcome Generous =
        replay(Events, Kind, /*Batched=*/true, uint64_t(1) << 40);
    EXPECT_EQ(Unlimited, Generous);
    EXPECT_EQ(Generous.FailedMallocs, 0u);
    EXPECT_EQ(Generous.DroppedEvents, 0u);
  }
}

namespace {

/// Loads every committed corpus script (tests/corpus/*.events) in sorted
/// order, so failures attribute to a stable file name.
std::vector<std::pair<std::string, std::vector<AllocEvent>>> loadCorpus() {
  std::vector<std::pair<std::string, std::vector<AllocEvent>>> Corpus;
  for (const auto &Entry :
       std::filesystem::directory_iterator(ALLOCSIM_CORPUS_DIR)) {
    if (Entry.path().extension() != ".events")
      continue;
    std::ifstream In(Entry.path());
    EXPECT_TRUE(In.good()) << Entry.path();
    Corpus.emplace_back(Entry.path().filename().string(),
                        readAllocEvents(In));
  }
  std::sort(Corpus.begin(), Corpus.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  EXPECT_GE(Corpus.size(), 6u) << "corpus files missing from "
                               << ALLOCSIM_CORPUS_DIR;
  return Corpus;
}

} // namespace

TEST(AllocatorFuzzTest, CommittedCorpusIsWellFormed) {
  for (const auto &[Name, Events] : loadCorpus()) {
    std::string WhyNot;
    EXPECT_TRUE(validateAllocEvents(Events, &WhyNot)) << Name << ": " << WhyNot;
    EXPECT_FALSE(Events.empty()) << Name;
  }
}

TEST(AllocatorFuzzTest, CommittedCorpusReplaysClean) {
  // The committed streams replay against every allocator with full heap
  // checking and must stay differential-identical across delivery modes —
  // the same bar as the seeded cases, but pinned to the exact historical
  // bytes rather than to the generator.
  for (const auto &[Name, Events] : loadCorpus()) {
    for (AllocatorKind Kind : PaperAllocators) {
      SCOPED_TRACE(Name + "/" + allocatorKindName(Kind));
      FuzzOutcome Batched = replay(Events, Kind, /*Batched=*/true);
      EXPECT_EQ(Batched.Violations, 0u)
          << (Batched.Reports.empty() ? std::string("(no report)")
                                      : Batched.Reports.front());
      FuzzOutcome Scalar = replay(Events, Kind, /*Batched=*/false);
      EXPECT_EQ(Batched, Scalar);
    }
  }
}

TEST(AllocatorFuzzTest, BestFitRidesAlong) {
  // BestFit is not one of the paper's five but shares the sequential-fit
  // machinery; keep it honest under the same corpus.
  std::vector<AllocEvent> Events = synthesizeScript(FuzzSeeds[0], 2000);
  FuzzOutcome Outcome = replay(Events, AllocatorKind::BestFit, true);
  EXPECT_EQ(Outcome.Violations, 0u);
}

namespace {

/// The modern CacheLab backends (PAPERS.md): fuzzed to the identical bar as
/// the paper five — every seed, every delivery mode, the OOM axis, and the
/// committed corpus.
constexpr AllocatorKind ModernKinds[] = {AllocatorKind::BitmapFit,
                                         AllocatorKind::SpaceFit};

} // namespace

TEST(AllocatorFuzzTest, ModernBackendsNoViolationsUnderFullCheck) {
  for (AllocatorKind Kind : ModernKinds) {
    for (uint64_t Seed : FuzzSeeds) {
      SCOPED_TRACE(std::string(allocatorKindName(Kind)) + "/seed=" +
                   std::to_string(Seed));
      std::vector<AllocEvent> Events = synthesizeScript(Seed, 2000);
      FuzzOutcome Outcome = replay(Events, Kind, /*Batched=*/true);
      EXPECT_EQ(Outcome.Violations, 0u)
          << (Outcome.Reports.empty() ? std::string("(no report)")
                                      : Outcome.Reports.front());
      EXPECT_GT(Outcome.Walks, 0u);
    }
  }
}

TEST(AllocatorFuzzTest, ModernBackendsStayDifferential) {
  for (AllocatorKind Kind : ModernKinds) {
    for (uint64_t Seed : FuzzSeeds) {
      SCOPED_TRACE(std::string(allocatorKindName(Kind)) + "/seed=" +
                   std::to_string(Seed));
      std::vector<AllocEvent> Events = synthesizeScript(Seed, 2000);
      FuzzOutcome Batched = replay(Events, Kind, /*Batched=*/true);
      FuzzOutcome Scalar = replay(Events, Kind, /*Batched=*/false);
      EXPECT_EQ(Batched, Scalar);
    }
  }
}

TEST(AllocatorFuzzTest, ModernBackendsCapacityLimitedOom) {
  // BitmapFit's slab carves and map growth, and SpaceFit's chunk expansion,
  // must all fail soft at the capacity wall: graceful failed mallocs, no
  // integrity violations, and bit-identical across delivery modes.
  for (AllocatorKind Kind : ModernKinds) {
    bool SawFailures = false;
    for (uint64_t Seed : FuzzSeeds) {
      uint64_t Capacity = 8192 + (SplitMix64(Seed).next() % 32768);
      SCOPED_TRACE(std::string(allocatorKindName(Kind)) + "/seed=" +
                   std::to_string(Seed) + "/capacity=" +
                   std::to_string(Capacity));
      std::vector<AllocEvent> Events = synthesizeScript(Seed, 2000);
      FuzzOutcome Batched = replay(Events, Kind, /*Batched=*/true, Capacity);
      EXPECT_EQ(Batched.Violations, 0u)
          << (Batched.Reports.empty() ? std::string("(no report)")
                                      : Batched.Reports.front());
      FuzzOutcome Scalar = replay(Events, Kind, /*Batched=*/false, Capacity);
      EXPECT_EQ(Batched, Scalar);
      if (Batched.FailedMallocs > 0) {
        SawFailures = true;
        EXPECT_GT(Batched.DroppedEvents, 0u);
      } else {
        EXPECT_EQ(Batched.DroppedEvents, 0u);
      }
    }
    EXPECT_TRUE(SawFailures)
        << allocatorKindName(Kind)
        << ": no seed ran out of heap — capacities too generous";
  }
}

TEST(AllocatorFuzzTest, ModernBackendsReplayCommittedCorpus) {
  // Every committed stream — oom_recovery.events included — replays clean
  // and differential under both new backends.
  for (const auto &[Name, Events] : loadCorpus()) {
    for (AllocatorKind Kind : ModernKinds) {
      SCOPED_TRACE(Name + "/" + allocatorKindName(Kind));
      FuzzOutcome Batched = replay(Events, Kind, /*Batched=*/true);
      EXPECT_EQ(Batched.Violations, 0u)
          << (Batched.Reports.empty() ? std::string("(no report)")
                                      : Batched.Reports.front());
      FuzzOutcome Scalar = replay(Events, Kind, /*Batched=*/false);
      EXPECT_EQ(Batched, Scalar);
    }
  }
}

//===----------------------------------------------------------------------===//
// Mutated event scripts: diagnose or run clean
//===----------------------------------------------------------------------===//

namespace {

/// The committed corpus as text lines, in sorted file order.
std::vector<std::vector<std::string>> loadCorpusLines() {
  std::vector<std::pair<std::string, std::vector<std::string>>> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(ALLOCSIM_CORPUS_DIR)) {
    if (Entry.path().extension() != ".events")
      continue;
    std::ifstream In(Entry.path());
    std::vector<std::string> Lines;
    for (std::string Line; std::getline(In, Line);)
      Lines.push_back(Line);
    Files.emplace_back(Entry.path().filename().string(), std::move(Lines));
  }
  std::sort(Files.begin(), Files.end());
  std::vector<std::vector<std::string>> Corpus;
  for (auto &File : Files)
    Corpus.push_back(std::move(File.second));
  return Corpus;
}

/// The whitespace-separated fields of \p Line.
std::vector<std::string> fieldsOf(const std::string &Line) {
  std::istringstream In(Line);
  return {std::istream_iterator<std::string>(In),
          std::istream_iterator<std::string>()};
}

/// Renames object \p From to \p To on every record that names it.
void renameObject(std::vector<std::string> &Lines, const std::string &From,
                  const std::string &To) {
  for (std::string &Line : Lines) {
    std::vector<std::string> Fields = fieldsOf(Line);
    if (Fields.size() < 2 || Fields[0] == "s" || Fields[1] != From)
      continue;
    Fields[1] = To;
    Line.clear();
    for (const std::string &Field : Fields)
      Line += (Line.empty() ? "" : " ") + Field;
  }
}

/// One random edit of a script: a byte replaced or inserted, a line
/// dropped, duplicated or moved, a number swapped for a boundary value, an
/// object renamed to id 0 or 2^32-1, or an object renamed to one freed
/// before its malloc, so its id is malloc'd again.
void mutateScript(std::vector<std::string> &Lines, Rng &R) {
  static const char Bytes[] = {'0', '1', '9', 'm', 'f', 't', 's', 'r',
                               'w', ' ', '-', 'x', '\t', '\0'};
  static const char *const Numbers[] = {
      "0",     "1",          "3",          "4",          "16383",
      "65536", "65537",      "2147483648", "4294967295", "4294967296",
      "-1",    "+7",         "007",        "99999999999999999999"};
  if (Lines.empty())
    return;
  auto Pick = [&] { return size_t(R.nextBelow(Lines.size())); };
  switch (R.nextBelow(8)) {
  case 0: {
    std::string &Line = Lines[Pick()];
    if (!Line.empty())
      Line[R.nextBelow(Line.size())] = Bytes[R.nextBelow(std::size(Bytes))];
    break;
  }
  case 1: {
    std::string &Line = Lines[Pick()];
    Line.insert(R.nextBelow(Line.size() + 1), 1,
                Bytes[R.nextBelow(std::size(Bytes))]);
    break;
  }
  case 2:
    Lines.erase(Lines.begin() + Pick());
    break;
  case 3:
    Lines.insert(Lines.begin() + Pick(), Lines[Pick()]);
    break;
  case 4:
    std::swap(Lines[Pick()], Lines[Pick()]);
    break;
  case 5: {
    std::string &Line = Lines[Pick()];
    size_t Start = Line.find_first_of("0123456789",
                                      R.nextBelow(Line.size() + 1));
    if (Start == std::string::npos)
      break;
    size_t End = Line.find_first_not_of("0123456789", Start);
    Line.replace(Start, End == std::string::npos ? End : End - Start,
                 Numbers[R.nextBelow(std::size(Numbers))]);
    break;
  }
  case 6: {
    std::vector<std::string> Fields = fieldsOf(Lines[Pick()]);
    if (Fields.size() >= 2 && Fields[0] == "m")
      renameObject(Lines, Fields[1], R.nextBelow(2) ? "0" : "4294967295");
    break;
  }
  default: {
    // An object malloc'd after some free takes the freed object's id.
    const size_t FreeAt = Pick();
    std::vector<std::string> Freed = fieldsOf(Lines[FreeAt]);
    if (Freed.size() != 2 || Freed[0] != "f")
      break;
    for (size_t I = FreeAt + 1; I != Lines.size(); ++I) {
      std::vector<std::string> Fields = fieldsOf(Lines[I]);
      if (Fields.size() >= 2 && Fields[0] == "m" && Fields[1] != Freed[1]) {
        renameObject(Lines, Fields[1], Freed[1]);
        break;
      }
    }
    break;
  }
  }
}

} // namespace

TEST(AllocEventsFuzzTest, MutatedScriptsDiagnoseOrRunClean) {
  // Fixed seed and budget (400 scripts): every run checks the same ones. The parser
  // and validator must raise an error or accept; an accepted script with
  // small requests must run clean through the flat live-object tables of
  // the driver, the allocators (QuickFit nests a second one) and the
  // shadow, whatever its ids.
  const std::vector<std::vector<std::string>> Corpus = loadCorpusLines();
  ASSERT_GE(Corpus.size(), 6u) << "corpus files missing from "
                               << ALLOCSIM_CORPUS_DIR;
  Rng R(0xe7e47f22);
  size_t Diagnosed = 0, Ran = 0;
  bool RanIdZero = false, RanIdMax = false, RanReusedId = false;
  for (unsigned Iter = 0; Iter != 400; ++Iter) {
    std::vector<std::string> Lines = Corpus[R.nextBelow(Corpus.size())];
    for (uint64_t Edits = 1 + R.nextBelow(4); Edits != 0; --Edits)
      mutateScript(Lines, R);
    std::string Text;
    for (const std::string &Line : Lines)
      Text += Line + "\n";

    std::istringstream In(Text);
    DiagEngine Diags;
    std::vector<LocatedAllocEvent> Located = parseAllocEvents(In, Diags);
    std::vector<AllocEvent> Events;
    std::vector<SourceLoc> Locs;
    for (const LocatedAllocEvent &Record : Located) {
      Events.push_back(Record.Event);
      Locs.push_back(Record.Loc);
    }
    if (Diags.errorCount() == 0)
      validateAllocEvents(Events, Diags, &Locs);
    if (Diags.errorCount() != 0) {
      ++Diagnosed;
      continue;
    }

    // Accepted. Run it if its requests are small (a touch's words are
    // references, so they are bounded too).
    uint64_t Touched = 0;
    bool Small = true;
    std::set<uint32_t> Malloced;
    bool Reused = false;
    for (const AllocEvent &Event : Events) {
      if (Event.Kind == AllocEventKind::Malloc) {
        Small &= Event.Amount <= 64 * 1024;
        Reused |= !Malloced.insert(Event.Id).second;
      } else if (Event.Kind != AllocEventKind::Free) {
        Small &= Event.Amount <= 16 * 1024;
        Touched += Event.Amount;
      }
    }
    if (!Small)
      continue;
    ++Ran;
    RanIdZero |= Malloced.count(0) != 0;
    RanIdMax |= Malloced.count(0xFFFFFFFFu) != 0;
    RanReusedId |= Reused;
    for (AllocatorKind Kind : {AllocatorKind::FirstFit, AllocatorKind::QuickFit}) {
      ExperimentConfig Config;
      Config.Allocator = Kind;
      Config.Caches = {CacheConfig{}};
      Config.Check.Level = CheckLevel::Fast;
      Config.Check.AbortOnViolation = false;
      const RunResult Result = runScriptExperiment(Config, Events);
      ASSERT_EQ(Result.CheckViolations, 0u)
          << allocatorKindName(Kind) << ", script:\n"
          << Text << "\nfirst report: "
          << (Result.CheckReports.empty() ? std::string("(none)")
                                          : Result.CheckReports.front());
      ASSERT_EQ(Result.AppRefs, Touched) << allocatorKindName(Kind);
      ASSERT_EQ(Result.TotalRefs,
                Result.AppRefs + Result.AllocRefs + Result.TagRefs)
          << allocatorKindName(Kind);
    }
  }
  // The budget reaches both outcomes and the ids the tables must take.
  EXPECT_GT(Diagnosed, 100u);
  EXPECT_GT(Ran, 40u);
  EXPECT_TRUE(RanIdZero);
  EXPECT_TRUE(RanIdMax);
  EXPECT_TRUE(RanReusedId);
}
