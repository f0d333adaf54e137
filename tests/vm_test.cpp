//===- tests/vm_test.cpp - Page-fault simulator tests ---------------------===//

#include "vm/PageSim.h"

#include <gtest/gtest.h>

#include <vector>

using namespace allocsim;

namespace {

void touchPage(PageSim &Sim, uint64_t Page) {
  Sim.access({static_cast<Addr>(Page * 4096), 4, AccessKind::Read,
              AccessSource::Application});
}

/// Reference LRU simulation: direct stack implementation.
uint64_t referenceLruFaults(const std::vector<uint64_t> &Pages,
                            uint64_t MemoryPages) {
  std::vector<uint64_t> Stack;
  uint64_t Faults = 0;
  for (uint64_t Page : Pages) {
    auto It = std::find(Stack.begin(), Stack.end(), Page);
    if (It == Stack.end()) {
      ++Faults;
    } else {
      auto Depth = static_cast<uint64_t>(It - Stack.begin());
      if (Depth >= MemoryPages)
        ++Faults;
      Stack.erase(It);
    }
    Stack.insert(Stack.begin(), Page);
  }
  return Faults;
}

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
  // Property: Fenwick stack distances must agree with a brute-force LRU
  // stack at every memory size.
  std::vector<uint64_t> Pages;
  uint64_t State = 12345;
  for (int I = 0; I < 3000; ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    Pages.push_back((State >> 33) % 40);
  }
  PageSim Sim;
  for (uint64_t Page : Pages)
    touchPage(Sim, Page);
  for (uint64_t Memory : {1u, 2u, 3u, 5u, 10u, 20u, 39u, 40u, 64u})
    EXPECT_EQ(Sim.faults(Memory), referenceLruFaults(Pages, Memory))
        << "memory=" << Memory;
}

TEST(PageSimTest, CompactionPreservesResults) {
  // Force many compactions with a tiny slot capacity and compare against a
  // same-trace simulator with a huge capacity.
  PageSim Small(4096, 64), Big(4096, 1 << 20);
  uint64_t State = 99;
  for (int I = 0; I < 20000; ++I) {
    State = State * 2862933555777941757ull + 3037000493ull;
    uint64_t Page = (State >> 33) % 25;
    touchPage(Small, Page);
    touchPage(Big, Page);
  }
  for (uint64_t Memory : {1u, 4u, 12u, 24u, 25u})
    EXPECT_EQ(Small.faults(Memory), Big.faults(Memory));
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
