//===- tests/vm_test.cpp - Page-fault simulator tests ---------------------===//

#include "vm/PageSim.h"

#include "stats/Telemetry.h"
#include "trace/RefTrace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace allocsim;

namespace {

void touchPage(PageSim &Sim, uint64_t Page) {
  Sim.access({static_cast<Addr>(Page * 4096), 4, AccessKind::Read,
              AccessSource::Application});
}

/// Naive LRU oracle: a move-to-front list of every page ever touched,
/// searched linearly. Mirrors PageSim's observable state.
class MoveToFrontLru {
public:
  explicit MoveToFrontLru(uint32_t PageBytes)
      : Shift(static_cast<uint32_t>(__builtin_ctz(PageBytes))) {}

  void access(const MemAccess &Access) {
    const FrameRange Pages = frameRange(Access, Shift);
    for (uint64_t Page = Pages.First; Page <= Pages.Last; ++Page) {
      ++References;
      auto It = std::find(Stack.begin(), Stack.end(), Page);
      if (It == Stack.end()) {
        ++ColdFaults;
        Stack.insert(Stack.begin(), Page);
        continue;
      }
      const auto Distance = static_cast<uint64_t>(It - Stack.begin());
      if (Distance == 0)
        ++ZeroDistanceHits;
      else
        Distances.add(Distance);
      std::rotate(Stack.begin(), It, It + 1);
    }
  }

  uint32_t Shift;
  std::vector<uint64_t> Stack;
  Histogram Distances;
  uint64_t References = 0;
  uint64_t ColdFaults = 0;
  uint64_t ZeroDistanceHits = 0;
};

/// Compares every observable of \p Sim with the oracle's.
void expectMatchesOracle(const PageSim &Sim, const MoveToFrontLru &Oracle) {
  EXPECT_EQ(Sim.references(), Oracle.References);
  EXPECT_EQ(Sim.zeroDistanceHits(), Oracle.ZeroDistanceHits);
  ASSERT_EQ(Sim.distinctPages(), Oracle.Stack.size());
  const Histogram Hist = Sim.distanceHistogram();
  ASSERT_EQ(Hist.distinct(), Oracle.Distances.distinct());
  EXPECT_TRUE(std::equal(Hist.begin(), Hist.end(), Oracle.Distances.begin()))
      << "stack-distance histograms differ";
  // Expected faults by suffix sum: every distance >= the memory size
  // faults, on top of the cold faults.
  const uint64_t Pages = Oracle.Stack.size();
  std::vector<uint64_t> Expected(Pages + 2, Oracle.ColdFaults);
  for (const auto &[Distance, Count] : Oracle.Distances)
    Expected[Distance] += Count;
  for (uint64_t Memory = Pages; Memory >= 1; --Memory)
    Expected[Memory] += Expected[Memory + 1] - Oracle.ColdFaults;
  Expected[0] = Oracle.References;
  for (uint64_t Memory = 0; Memory <= Pages + 1; ++Memory)
    ASSERT_EQ(Sim.faults(Memory), Expected[Memory]) << "memory=" << Memory;
}

uint64_t nextRandom(uint64_t &State) {
  State = State * 6364136223846793005ull + 1442695040888963407ull;
  return State >> 17;
}

/// A stream over \p Pages distinct page numbers of \p PageBytes bytes,
/// scattered over the whole 32-bit space and always including the top page,
/// so records can run past 4 GiB. Half the references revisit one of the
/// last few pages (shallow distances); the rest pick any page. A quarter of
/// the records start two bytes before a page end, so those of three bytes
/// or more straddle into the next page.
std::vector<MemAccess> oracleStream(uint32_t PageBytes, uint32_t Pages,
                                    size_t Length, uint64_t Seed) {
  const uint64_t PageCount = (uint64_t(1) << 32) / PageBytes;
  std::vector<uint64_t> PageNumbers{PageCount - 1};
  uint64_t State = Seed;
  while (PageNumbers.size() < Pages) {
    const uint64_t Page = nextRandom(State) % PageCount;
    if (std::find(PageNumbers.begin(), PageNumbers.end(), Page) ==
        PageNumbers.end())
      PageNumbers.push_back(Page);
  }
  static constexpr uint8_t Sizes[] = {0, 1, 2, 4, 4, 4, 8};
  std::vector<MemAccess> Stream;
  std::vector<uint64_t> Recent(8, PageNumbers[0]);
  for (size_t I = 0; I != Length; ++I) {
    const uint64_t Pick = nextRandom(State);
    const uint64_t Page = (Pick & 1) ? Recent[(Pick >> 1) % Recent.size()]
                                     : PageNumbers[(Pick >> 4) % Pages];
    Recent[I % Recent.size()] = Page;
    const uint64_t Offset = (Pick >> 5) % 4 == 0 && PageBytes > 1
                                ? PageBytes - 2
                                : nextRandom(State) % PageBytes;
    const uint8_t Size = Sizes[nextRandom(State) % std::size(Sizes)];
    const auto Kind = (Pick >> 3) & 1 ? AccessKind::Write : AccessKind::Read;
    Stream.push_back({static_cast<Addr>(Page * PageBytes + Offset), Size,
                      Kind, AccessSource::Application});
  }
  return Stream;
}

/// Runs \p Stream through the oracle and through PageSim twice: one record
/// at a time and in random chunks.
void checkAgainstOracle(uint32_t PageBytes,
                        const std::vector<MemAccess> &Stream, uint64_t Seed) {
  MoveToFrontLru Oracle(PageBytes);
  PageSim Single(PageBytes), Chunked(PageBytes);
  for (const MemAccess &Access : Stream) {
    Oracle.access(Access);
    Single.access(Access);
  }
  uint64_t State = Seed;
  for (size_t I = 0; I != Stream.size();) {
    const size_t Chunk =
        std::min<size_t>(1 + nextRandom(State) % 300, Stream.size() - I);
    Chunked.accessBatch(Stream.data() + I, Chunk);
    I += Chunk;
  }
  {
    SCOPED_TRACE("one record at a time");
    expectMatchesOracle(Single, Oracle);
  }
  {
    SCOPED_TRACE("chunked");
    expectMatchesOracle(Chunked, Oracle);
  }
}

/// Span records mixed with single references around three bases: ascending
/// and descending spans of 2 to 17 words, one in seven running up to four
/// pages (so many straddle a page boundary or cover whole pages), and an
/// ascending span ending at 0xFFFFFFFC plus a descending one starting
/// there.
std::vector<MemAccess> spanStream(uint32_t PageBytes, size_t Length,
                                  uint64_t Seed) {
  const Addr Bases[] = {0x1000'0000, 0x0800'0000, 0x4000'0000};
  uint64_t State = Seed;
  std::vector<MemAccess> Stream;
  for (size_t I = 0; I != Length; ++I) {
    const uint64_t Pick = nextRandom(State);
    MemAccess Acc;
    Acc.Kind = (Pick >> 3) & 1 ? AccessKind::Write : AccessKind::Read;
    const uint64_t Word = nextRandom(State) % (16 * PageBytes);
    const Addr Base =
        Bases[(Pick >> 5) % std::size(Bases)] + 4 * static_cast<Addr>(Word);
    if (Pick % 5 == 0) {
      Acc.Address = Base;
      Stream.push_back(Acc);
      continue;
    }
    const uint64_t Words = Pick % 7 == 1 ? 2 + nextRandom(State) % PageBytes
                                         : 2 + nextRandom(State) % 16;
    Acc.Words = static_cast<uint16_t>(Words);
    Acc.Direction = (Pick >> 4) & 1 ? SpanDirection::Descending
                                    : SpanDirection::Ascending;
    Acc.Address = Acc.Direction == SpanDirection::Ascending
                      ? Base
                      : Base + 4 * static_cast<Addr>(Words - 1);
    Stream.push_back(Acc);
  }
  MemAccess Top;
  Top.Words = 1000;
  Top.Address = 0xFFFFFFFCu - 4 * 999;
  Stream.push_back(Top);
  Top.Address = 0xFFFFFFFCu;
  Top.Direction = SpanDirection::Descending;
  Stream.push_back(Top);
  return Stream;
}

/// A PageSim with a full-level telemetry registry for vm.page_run_len.
struct TelemetryPageSim {
  explicit TelemetryPageSim(uint32_t PageBytes) : Sim(PageBytes) {
    Sim.attachTelemetry(&Telem);
  }
  HistogramSnapshot pageRunLen() {
    Sim.flushRunTelemetry();
    return Telem.snapshot().histogram("vm.page_run_len");
  }
  Telemetry Telem{TelemetryLevel::Full};
  PageSim Sim;
};

} // namespace

TEST(PageSimTest, ColdFaultsOnly) {
  PageSim Sim;
  for (uint64_t Page = 0; Page < 10; ++Page)
    touchPage(Sim, Page);
  EXPECT_EQ(Sim.references(), 10u);
  EXPECT_EQ(Sim.distinctPages(), 10u);
  EXPECT_EQ(Sim.faults(10), 10u);
  EXPECT_EQ(Sim.faults(100), 10u);
}

TEST(PageSimTest, RepeatedPageHitsWithOnePage) {
  PageSim Sim;
  for (int I = 0; I < 5; ++I)
    touchPage(Sim, 7);
  EXPECT_EQ(Sim.faults(1), 1u);
}

TEST(PageSimTest, CyclicSweepThrashesSmallMemory) {
  // The classic LRU pathology: cycling over N+1 pages with N resident
  // faults on every reference.
  PageSim Sim;
  constexpr int Rounds = 10, Pages = 5;
  for (int Round = 0; Round < Rounds; ++Round)
    for (uint64_t Page = 0; Page < Pages; ++Page)
      touchPage(Sim, Page);
  EXPECT_EQ(Sim.faults(Pages - 1), uint64_t(Rounds * Pages));
  EXPECT_EQ(Sim.faults(Pages), uint64_t(Pages)) << "fits: cold only";
}

TEST(PageSimTest, StackDistanceDefinition) {
  PageSim Sim;
  touchPage(Sim, 1);
  touchPage(Sim, 2);
  touchPage(Sim, 3);
  touchPage(Sim, 1); // two distinct pages (2,3) since last touch of 1
  const Histogram &Hist = Sim.distanceHistogram();
  EXPECT_EQ(Hist.count(2), 1u);
  EXPECT_EQ(Hist.total(), 1u);
}

TEST(PageSimTest, MatchesReferenceLruOnRandomTrace) {
  // Property: head-and-tail stack distances must agree with a brute-force
  // LRU stack at every memory size.
  std::vector<MemAccess> Stream;
  uint64_t State = 12345;
  for (int I = 0; I < 3000; ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    Stream.push_back({static_cast<Addr>((State >> 33) % 40 * 4096), 4,
                      AccessKind::Read, AccessSource::Application});
  }
  checkAgainstOracle(4096, Stream, 12345);
}

TEST(PageSimTest, CompactionPreservesResults) {
  // 200 pages keep about 170 below the head, so the slot tree runs out of
  // slots and compacts every couple of hundred page changes; the
  // distances must still match the oracle's move-to-front list.
  std::vector<MemAccess> Stream;
  uint64_t State = 99;
  for (int I = 0; I < 20000; ++I) {
    State = State * 2862933555777941757ull + 3037000493ull;
    const uint64_t Page = (State >> 33) % 200;
    Stream.push_back({static_cast<Addr>(Page * 4096), 4, AccessKind::Read,
                      AccessSource::Application});
  }
  checkAgainstOracle(4096, Stream, 99);
}

TEST(PageSimTest, MatchesMoveToFrontOracle) {
  // Page counts below, at and above the head size, up to a working set
  // whose table and slot tree grow several times. With 1-byte pages every
  // record of n bytes touches n pages, so fewer page numbers suffice.
  constexpr uint32_t Head = PageSim::HeadPages;
  for (uint32_t PageBytes : {1u, 64u, 4096u})
    for (uint32_t Pages : {1u, 2u, Head - 1, Head, Head + 1, 2 * Head, 100u,
                           1000u, 5000u}) {
      if (PageBytes == 1 && Pages > 1000)
        continue;
      SCOPED_TRACE(testing::Message()
                   << "page bytes " << PageBytes << ", pages " << Pages);
      const uint64_t Seed = PageBytes * 10007ull + Pages;
      checkAgainstOracle(PageBytes,
                         oracleStream(PageBytes, Pages, 8 * Pages + 2000, Seed),
                         Seed);
    }
}

TEST(PageSimTest, ColdPageGrowsTableWhileHeadEvicts) {
  // One page change that does three things: its cold insert doubles the
  // page table (so the rehash must carry the new page's head slot), the
  // full head demotes its least recent page, and that demotion runs out
  // of tail slots and compacts. The stream is derived from PageSim's
  // starting sizes (a 64-entry table, at most half full, and a 64-slot
  // tree) and its growth rules, tracked below as plain counters:
  //   1. cold pages up to the last one before a table growth that leaves
  //      some pages below the head;
  //   2. a cyclic sweep over those pages, every change a tail hit and a
  //      demotion, until the next demotion compacts;
  //   3. the cold page that grows the table;
  //   4. more cold pages, then every page again, so all distances show.
  constexpr uint64_t Head = PageSim::HeadPages;
  uint64_t TableSize = 64;
  while (TableSize / 2 <= Head)
    TableSize *= 2;
  const uint64_t Resident = TableSize / 2; // the next page grows the table
  uint64_t TreeSize = 64, NextSlot = 1, Active = 0;
  auto demote = [&] {
    if (NextSlot >= TreeSize) {
      NextSlot = Active + 1;
      TreeSize = std::max(TreeSize, 2 * (Active + 16));
    }
    ++NextSlot;
    ++Active;
  };

  std::vector<MemAccess> Stream;
  auto add = [&](uint64_t Page) {
    Stream.push_back({static_cast<Addr>(Page * 4096), 4, AccessKind::Read,
                      AccessSource::Application});
  };
  for (uint64_t Page = 0; Page != Resident; ++Page) {
    add(Page);
    if (Page >= Head)
      demote();
  }
  for (uint64_t Page = 0; NextSlot < TreeSize; ++Page) {
    add(Page % Resident);
    --Active;
    demote();
  }
  ASSERT_GT(Stream.size(), Resident) << "the sweep must make tail hits";
  for (uint64_t Page = Resident; Page != 2 * TableSize; ++Page)
    add(Page);
  for (uint64_t Page = 0; Page != 2 * TableSize; ++Page)
    add(Page);

  MoveToFrontLru Oracle(4096);
  PageSim Sim;
  for (const MemAccess &Access : Stream) {
    Oracle.access(Access);
    Sim.access(Access);
  }
  expectMatchesOracle(Sim, Oracle);
}

TEST(PageSimTest, InclusionProperty) {
  // Mattson: fault count is non-increasing in memory size.
  PageSim Sim;
  uint64_t State = 7;
  for (int I = 0; I < 5000; ++I) {
    State = State * 6364136223846793005ull + 1;
    touchPage(Sim, (State >> 30) % 100);
  }
  uint64_t Prev = ~0ull;
  for (uint64_t Memory = 1; Memory <= 110; ++Memory) {
    uint64_t Faults = Sim.faults(Memory);
    EXPECT_LE(Faults, Prev);
    Prev = Faults;
  }
  EXPECT_EQ(Sim.faults(110), Sim.distinctPages()) << "cold faults remain";
}

TEST(PageSimTest, FaultRatePerReference) {
  PageSim Sim;
  for (int I = 0; I < 4; ++I)
    touchPage(Sim, 0);
  EXPECT_DOUBLE_EQ(Sim.faultRate(1), 0.25);
  EXPECT_DOUBLE_EQ(Sim.faultRateForMemoryKb(4), 0.25);
}

TEST(PageSimTest, PageGranularityFromAddresses) {
  PageSim Sim; // 4 KB pages
  Sim.access({0x1000, 4, AccessKind::Read, AccessSource::Application});
  Sim.access({0x1ffc, 4, AccessKind::Write, AccessSource::Application});
  Sim.access({0x2000, 4, AccessKind::Read, AccessSource::Application});
  EXPECT_EQ(Sim.distinctPages(), 2u);
}

TEST(PageSimTest, ReferencePastFourGiBTouchesBothPages) {
  // The last byte lies beyond the 32-bit space: the reference covers the
  // top page and the one after it, on the scalar and the batched path.
  const MemAccess Wrap{0xFFFFFFFEu, 8, AccessKind::Read,
                       AccessSource::Application};
  PageSim Scalar;
  Scalar.access(Wrap);
  EXPECT_EQ(Scalar.references(), 2u);
  EXPECT_EQ(Scalar.distinctPages(), 2u);

  PageSim Batched;
  const MemAccess Batch[] = {{0xFFFFF000u, 4, AccessKind::Read,
                              AccessSource::Application},
                             Wrap};
  Batched.accessBatch(Batch, 2);
  EXPECT_EQ(Batched.references(), 3u);
  EXPECT_EQ(Batched.distinctPages(), 2u);
}

TEST(PageSimTest, ZeroDistanceFastPathCountsCorrectly) {
  PageSim Sim;
  // Ten consecutive touches of one page, then one of another, then back.
  for (int I = 0; I < 10; ++I)
    touchPage(Sim, 1);
  touchPage(Sim, 2);
  touchPage(Sim, 1);
  EXPECT_EQ(Sim.zeroDistanceHits(), 9u);
  EXPECT_EQ(Sim.references(), 12u);
  EXPECT_EQ(Sim.faults(1), 3u) << "cold 1, cold 2, re-fault on 1";
  EXPECT_EQ(Sim.faults(2), 2u) << "both pages resident";
}

TEST(PageSimTest, ZeroMemoryAlwaysFaults) {
  PageSim Sim;
  for (int I = 0; I < 8; ++I)
    touchPage(Sim, 3);
  EXPECT_EQ(Sim.faults(0), 8u);
}

TEST(PageSimTest, SpansMatchTheirExpansion) {
  // A span makes one page-touch per page it covers and counts its other
  // words as zero-distance hits; fed one record at a time and in chunks,
  // it must leave every observable, the page-run histogram included,
  // exactly where its word-by-word expansion leaves them. Pages of 1 and 2
  // bytes split each word, and take the per-word path.
  for (uint32_t PageBytes : {1u, 2u, 64u, 4096u}) {
    SCOPED_TRACE(testing::Message() << "page bytes " << PageBytes);
    const std::vector<MemAccess> Stream =
        spanStream(PageBytes, 1500, PageBytes * 7919ull);
    CollectingSink Expansion;
    Expansion.accessBatch(Stream.data(), Stream.size());
    const std::vector<MemAccess> &Words = Expansion.records();

    MoveToFrontLru Oracle(PageBytes);
    TelemetryPageSim Expanded(PageBytes), Single(PageBytes),
        Chunked(PageBytes);
    for (const MemAccess &Word : Words) {
      Oracle.access(Word);
      Expanded.Sim.access(Word);
    }
    for (const MemAccess &Record : Stream)
      Single.Sim.access(Record);
    uint64_t State = PageBytes;
    for (size_t I = 0; I != Stream.size();) {
      const size_t Chunk =
          std::min<size_t>(1 + nextRandom(State) % 300, Stream.size() - I);
      Chunked.Sim.accessBatch(Stream.data() + I, Chunk);
      I += Chunk;
    }
    const HistogramSnapshot RunLen = Expanded.pageRunLen();
    for (TelemetryPageSim *Sim : {&Expanded, &Single, &Chunked}) {
      expectMatchesOracle(Sim->Sim, Oracle);
      EXPECT_EQ(Sim->pageRunLen(), RunLen);
    }
  }
}
