//===- tests/workload_test.cpp - Workload engine and driver tests ---------===//

#include "support/Rng.h"
#include "trace/RefTrace.h"
#include "workload/Driver.h"
#include "workload/Engine.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace allocsim;

namespace {

EngineOptions testOptions(uint32_t Scale = 128) {
  EngineOptions Options;
  Options.Scale = Scale;
  Options.ClampScaleForLiveHeap = false;
  return Options;
}

} // namespace

TEST(ProfilesTest, RegistryCoversAllWorkloads) {
  for (WorkloadId Id :
       {WorkloadId::Espresso, WorkloadId::Gs, WorkloadId::Ptc,
        WorkloadId::Gawk, WorkloadId::Make, WorkloadId::GsSmall,
        WorkloadId::GsMedium, WorkloadId::Cfrac}) {
    const AppProfile &Profile = getProfile(Id);
    EXPECT_STREQ(Profile.Name, workloadName(Id));
    EXPECT_FALSE(Profile.SizeMix.empty());
    EXPECT_GT(Profile.meanRequestBytes(), 0.0);
    EXPECT_GT(Profile.refsPerAlloc(), 10.0);
    EXPECT_GT(Profile.instrPerRef(), 1.0);
    EXPECT_LE(Profile.freeFraction(), 1.0);
  }
}

TEST(ProfilesTest, NameParsingRoundTrips) {
  for (WorkloadId Id : PaperWorkloads)
    EXPECT_EQ(parseWorkload(workloadName(Id)), Id);
  EXPECT_EQ(parseWorkload("ghostscript"), WorkloadId::Gs);
}

TEST(ProfilesTest, Table2NumbersEncoded) {
  // Spot-check the transcription of the paper's Table 2.
  const AppProfile &Espresso = getProfile(WorkloadId::Espresso);
  EXPECT_EQ(Espresso.PaperObjectsAllocated, 1673000u);
  EXPECT_EQ(Espresso.PaperObjectsFreed, 1666000u);
  EXPECT_EQ(Espresso.PaperMaxHeapKb, 396u);
  const AppProfile &Ptc = getProfile(WorkloadId::Ptc);
  EXPECT_EQ(Ptc.PaperObjectsFreed, 0u) << "PTC never frees";
  const AppProfile &GsSmall = getProfile(WorkloadId::GsSmall);
  EXPECT_EQ(GsSmall.PaperObjectsAllocated, 109000u);
}

TEST(ProfilesTest, MeanSizeConsistentWithMaxHeap) {
  // Surviving objects times mean request size should land within a factor
  // of ~1.6 of the paper's live heap (allocator overhead explains the
  // rest) — the calibration invariant behind the size mixes.
  for (WorkloadId Id : PaperWorkloads) {
    const AppProfile &Profile = getProfile(Id);
    double Surviving = double(Profile.PaperObjectsAllocated) -
                       double(Profile.PaperObjectsFreed);
    double PredictedKb = Surviving * Profile.meanRequestBytes() / 1024.0;
    EXPECT_GT(PredictedKb, Profile.PaperMaxHeapKb * 0.6) << Profile.Name;
    EXPECT_LT(PredictedKb, Profile.PaperMaxHeapKb * 1.6) << Profile.Name;
  }
}

TEST(WorkloadEngineTest, DeterministicForSameSeed) {
  WorkloadEngine A(getProfile(WorkloadId::Espresso), testOptions());
  WorkloadEngine B(getProfile(WorkloadId::Espresso), testOptions());
  EXPECT_EQ(A.generateAll(), B.generateAll());
}

TEST(WorkloadEngineTest, DifferentSeedsDiffer) {
  EngineOptions Options = testOptions();
  WorkloadEngine A(getProfile(WorkloadId::Espresso), Options);
  Options.Seed = 999;
  WorkloadEngine B(getProfile(WorkloadId::Espresso), Options);
  EXPECT_NE(A.generateAll(), B.generateAll());
}

TEST(WorkloadEngineTest, StreamIsWellFormed) {
  for (WorkloadId Id : PaperWorkloads) {
    WorkloadEngine Engine(getProfile(Id), testOptions());
    std::vector<AllocEvent> Events = Engine.generateAll();
    std::string Why;
    EXPECT_TRUE(validateAllocEvents(Events, &Why))
        << workloadName(Id) << ": " << Why;
  }
}

TEST(WorkloadEngineTest, TotalsMatchScaledPaperCounts) {
  WorkloadEngine Engine(getProfile(WorkloadId::Espresso), testOptions(128));
  const AppProfile &Profile = getProfile(WorkloadId::Espresso);
  EXPECT_EQ(Engine.totalAllocations(), Profile.PaperObjectsAllocated / 128);

  uint64_t Mallocs = 0, Frees = 0;
  Engine.generate([&](const AllocEvent &Event) {
    Mallocs += Event.Kind == AllocEventKind::Malloc;
    Frees += Event.Kind == AllocEventKind::Free;
  });
  EXPECT_EQ(Mallocs, Engine.totalAllocations());
  EXPECT_EQ(Frees, Engine.totalFrees());
  // The run must end with the paper's surviving-object count.
  uint64_t Surviving =
      Profile.PaperObjectsAllocated - Profile.PaperObjectsFreed;
  EXPECT_EQ(Mallocs - Frees, Surviving);
}

TEST(WorkloadEngineTest, ScaleClampPreservesPtcHeap) {
  // PTC frees nothing: the clamp must force scale 1.
  EngineOptions Options;
  Options.Scale = 64;
  Options.ClampScaleForLiveHeap = true;
  WorkloadEngine Engine(getProfile(WorkloadId::Ptc), Options);
  EXPECT_EQ(Engine.effectiveScale(), 1u);
  EXPECT_EQ(Engine.totalAllocations(),
            getProfile(WorkloadId::Ptc).PaperObjectsAllocated);
}

TEST(WorkloadEngineTest, ReferenceVolumeTracksPaperRatio) {
  const AppProfile &Profile = getProfile(WorkloadId::Gawk);
  WorkloadEngine Engine(Profile, testOptions(64));
  uint64_t Words = 0, Mallocs = 0;
  Engine.generate([&](const AllocEvent &Event) {
    switch (Event.Kind) {
    case AllocEventKind::Touch:
    case AllocEventKind::StackTouch:
      Words += Event.Amount;
      break;
    case AllocEventKind::Malloc:
      ++Mallocs;
      break;
    case AllocEventKind::Free:
      break;
    }
  });
  double RefsPerAlloc = double(Words) / double(Mallocs);
  EXPECT_NEAR(RefsPerAlloc, Profile.refsPerAlloc(),
              Profile.refsPerAlloc() * 0.1)
      << "reference budget drifted from the Table 2 ratio";
}

TEST(WorkloadEngineTest, SizeProfileMatchesEventStream) {
  WorkloadEngine Engine(getProfile(WorkloadId::Make), testOptions(4));
  Histogram FromEvents;
  Engine.generate([&](const AllocEvent &Event) {
    if (Event.Kind == AllocEventKind::Malloc)
      FromEvents.add(Event.Amount);
  });
  Histogram Profiled = Engine.sizeProfile();
  EXPECT_EQ(Profiled.total(), FromEvents.total());
  for (const auto &[Size, Count] : Profiled)
    EXPECT_EQ(FromEvents.count(Size), Count) << "size " << Size;
}

TEST(WorkloadEngineTest, MeanDrawnSizeMatchesProfile) {
  const AppProfile &Profile = getProfile(WorkloadId::Gs);
  WorkloadEngine Engine(Profile, testOptions(16));
  Histogram Sizes = Engine.sizeProfile();
  double Sum = 0;
  for (const auto &[Size, Count] : Sizes)
    Sum += double(Size) * double(Count);
  double Mean = Sum / double(Sizes.total());
  EXPECT_NEAR(Mean, Profile.meanRequestBytes(),
              Profile.meanRequestBytes() * 0.15);
}

TEST(WorkloadEngineTest, DeathClustersFreeAdjacentObjects) {
  // A profile that always frees in clusters must emit runs of frees whose
  // object ids are consecutive in allocation order.
  AppProfile Profile = getProfile(WorkloadId::Gawk);
  Profile.ClusterDeathProb = 1.0;
  Profile.DieYoungProb = 0.0;
  WorkloadEngine Engine(Profile, testOptions(256));

  std::vector<uint32_t> Freed;
  Engine.generate([&](const AllocEvent &Event) {
    if (Event.Kind == AllocEventKind::Free)
      Freed.push_back(Event.Id);
  });
  ASSERT_GT(Freed.size(), 100u);

  // Count ascending-by-one adjacencies in the free order; cluster deaths
  // should make them dominant.
  size_t Adjacent = 0;
  for (size_t I = 1; I != Freed.size(); ++I)
    Adjacent += Freed[I] == Freed[I - 1] + 1;
  EXPECT_GT(Adjacent, Freed.size() / 2)
      << "death clusters are not freeing adjacent objects";
}

TEST(WorkloadEngineTest, ClusterProbZeroStillWellFormed) {
  AppProfile Profile = getProfile(WorkloadId::Espresso);
  Profile.ClusterDeathProb = 0.0;
  WorkloadEngine Engine(Profile, testOptions(256));
  std::string Why;
  EXPECT_TRUE(validateAllocEvents(Engine.generateAll(), &Why)) << Why;
}

TEST(WorkloadEngineTest, CfracExtensionProfileRuns) {
  WorkloadEngine Engine(getProfile(WorkloadId::Cfrac), testOptions(128));
  std::vector<AllocEvent> Events = Engine.generateAll();
  std::string Why;
  EXPECT_TRUE(validateAllocEvents(Events, &Why)) << Why;
  // cfrac frees nearly everything.
  EXPECT_GT(Engine.totalFrees(),
            Engine.totalAllocations() * 9 / 10);
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

namespace {

struct DriverHarness {
  explicit DriverHarness(double InstrPerRef = 4.0)
      : Drive(*Alloc, Bus, Cost, InstrPerRef) {}

  MemoryBus Bus;
  SimHeap Heap{Bus};
  CostModel Cost;
  std::unique_ptr<Allocator> Alloc =
      createAllocator(AllocatorKind::Bsd, Heap, Cost);
  Driver Drive;
};

} // namespace

TEST(DriverTest, ExecutesLifecycle) {
  DriverHarness H;
  H.Drive.execute(AllocEvent::makeMalloc(1, 32));
  EXPECT_EQ(H.Drive.liveObjects(), 1u);
  Addr Ptr = H.Drive.addressOf(1);
  EXPECT_TRUE(H.Heap.contains(Ptr, 32));
  H.Drive.execute(AllocEvent::makeFree(1));
  EXPECT_EQ(H.Drive.liveObjects(), 0u);
}

TEST(DriverTest, TouchEmitsApplicationRefs) {
  DriverHarness H;
  H.Drive.execute(AllocEvent::makeMalloc(1, 32));
  uint64_t Before = H.Bus.accessesFrom(AccessSource::Application);
  H.Drive.execute(AllocEvent::makeTouch(1, 8, AccessKind::Write));
  EXPECT_EQ(H.Bus.accessesFrom(AccessSource::Application), Before + 8);
  EXPECT_EQ(H.Drive.appRefs(), 8u);
}

TEST(DriverTest, TouchWrapsWithinObject) {
  DriverHarness H;
  H.Drive.execute(AllocEvent::makeMalloc(1, 8)); // 2 words
  // Deliver the malloc's staged references before the sink attaches.
  H.Bus.flush();
  CollectingSink Sink;
  H.Bus.attach(&Sink);
  H.Drive.execute(AllocEvent::makeTouch(1, 5, AccessKind::Read));
  H.Bus.flush();
  Addr Base = H.Drive.addressOf(1);
  ASSERT_EQ(Sink.records().size(), 5u);
  const Addr Expected[] = {Base, Base + 4, Base, Base + 4, Base};
  for (size_t I = 0; I != 5; ++I)
    EXPECT_EQ(Sink.records()[I].Address, Expected[I]) << "word " << I;
}

namespace {

/// The driver's sweeps as they were emitted one word at a time, before
/// spans: the reference model the span emission must expand to.
class PerWordSweepModel {
public:
  explicit PerWordSweepModel(uint32_t WindowBytes) : Window(WindowBytes) {}

  void touchObject(std::vector<Addr> &Out, Addr Address,
                   uint32_t ObjectWords, uint32_t Words) const {
    uint32_t Offset = 0;
    for (uint32_t I = 0; I != Words; ++I) {
      Out.push_back(Address + 4 * Offset);
      if (++Offset == ObjectWords)
        Offset = 0;
    }
  }

  void touchStack(std::vector<Addr> &Out, uint32_t Words) {
    for (uint32_t I = 0; I != Words; ++I) {
      Out.push_back(StackBase + Pos);
      if (Pos + 4 >= Window)
        Dir = -1;
      else if (Pos == 0)
        Dir = 1;
      Pos = static_cast<uint32_t>(static_cast<int>(Pos) + 4 * Dir);
    }
  }

private:
  uint32_t Window;
  uint32_t Pos = 0;
  int Dir = 1;
};

} // namespace

TEST(DriverTest, SpanEmissionMatchesPerWordModel) {
  // Random object and stack touches, the lengths biased to the edges of
  // the span split: zero and one word, exact multiples of the object and
  // of the stack window (in words), one word either side of those, and
  // sweeps past MaxSpanWords, which the bus splits into several records.
  for (uint32_t WindowBytes : {64u, 2048u}) {
    SCOPED_TRACE(testing::Message() << "stack window " << WindowBytes);
    MemoryBus Bus;
    SimHeap Heap{Bus};
    CostModel Cost;
    std::unique_ptr<Allocator> Alloc =
        createAllocator(AllocatorKind::FirstFit, Heap, Cost);
    Driver Drive(*Alloc, Bus, Cost, 2.0, WindowBytes);
    PerWordSweepModel Model(WindowBytes);
    const uint32_t WindowWords = WindowBytes / 4;

    Rng R(WindowBytes);
    const uint32_t ObjectBytes[] = {4, 8, 60, 4096};
    for (uint32_t Id = 1; Id <= std::size(ObjectBytes); ++Id)
      Drive.execute(AllocEvent::makeMalloc(Id, ObjectBytes[Id - 1]));
    Bus.flush();
    CollectingSink Sink;
    Bus.attach(&Sink);
    RecordTap Records;
    Bus.attach(&Records);

    std::vector<Addr> Want;
    uint64_t Words = 0;
    for (int Step = 0; Step != 200; ++Step) {
      const bool Stack = R.nextBool(0.4);
      const uint32_t Id = 1 + static_cast<uint32_t>(R.nextBelow(4));
      const uint32_t Unit = Stack ? WindowWords : ObjectBytes[Id - 1] / 4;
      uint32_t Length = 0;
      switch (R.nextBelow(6)) {
      case 0:
        Length = static_cast<uint32_t>(R.nextBelow(2));
        break;
      case 1:
        Length = Unit * static_cast<uint32_t>(1 + R.nextBelow(3));
        break;
      case 2:
        Length = Unit * static_cast<uint32_t>(1 + R.nextBelow(3)) - 1;
        break;
      case 3:
        Length = Unit + 1;
        break;
      case 4:
        Length = MaxSpanWords + static_cast<uint32_t>(R.nextBelow(3 * Unit));
        break;
      default:
        Length = static_cast<uint32_t>(R.nextBelow(4 * Unit));
        break;
      }
      Words += Length;
      if (Stack) {
        Drive.execute(AllocEvent::makeStackTouch(Length, AccessKind::Read));
        Model.touchStack(Want, Length);
      } else {
        Drive.execute(AllocEvent::makeTouch(Id, Length, AccessKind::Write));
        Model.touchObject(Want, Drive.addressOf(Id), ObjectBytes[Id - 1] / 4,
                          Length);
      }
    }
    Bus.flush();
    ASSERT_EQ(Sink.records().size(), Want.size());
    EXPECT_EQ(Words, Want.size());
    EXPECT_LT(Records.records().size(), Words) << "no span emitted";
    for (size_t I = 0; I != Want.size(); ++I) {
      const MemAccess &Got = Sink.records()[I];
      ASSERT_EQ(Got.Address, Want[I]) << "word " << I;
      ASSERT_EQ(Got.Size, 4u);
      ASSERT_EQ(Got.Source, AccessSource::Application);
    }
  }
}

TEST(DriverTest, StackTouchesStayInWindow) {
  DriverHarness H;
  CollectingSink Sink;
  H.Bus.attach(&Sink);
  H.Drive.execute(AllocEvent::makeStackTouch(2000, AccessKind::Read));
  H.Bus.flush();
  ASSERT_EQ(Sink.records().size(), 2000u);
  for (const MemAccess &Access : Sink.records()) {
    EXPECT_GE(Access.Address, StackBase);
    EXPECT_LT(Access.Address, StackBase + 2048);
  }
}

TEST(DriverTest, ChargesInstructionsPerRef) {
  DriverHarness H;
  H.Drive.execute(AllocEvent::makeStackTouch(1000, AccessKind::Read));
  // 4.0 instructions per ref.
  EXPECT_EQ(H.Cost.appInstructions(), 4000u);
}

TEST(DriverTest, FractionalInstrPerRefAccumulates) {
  DriverHarness H(3.37);
  H.Drive.execute(AllocEvent::makeStackTouch(10000, AccessKind::Read));
  EXPECT_EQ(H.Cost.appInstructions(), 33700u);
}

namespace {

/// Parameter: a WorkloadId ordinal (that profile's ratio), or one past the
/// last profile for 3.0 and two past for 3.5.
class DriverChargeTest : public testing::TestWithParam<int> {};

double chargeTestRatio(int Param) {
  constexpr int Profiles = static_cast<int>(WorkloadId::Cfrac) + 1;
  if (Param < Profiles)
    return getProfile(static_cast<WorkloadId>(Param)).instrPerRef();
  return Param == Profiles ? 3.0 : 3.5;
}

} // namespace

TEST_P(DriverChargeTest, MatchesPerReferenceDoubleDebt) {
  // The per-touch fixed-point charge must equal, after every touch, the
  // per-reference double accumulator it replaced, replayed here as the
  // reference.
  const double Ratio = chargeTestRatio(GetParam());
  DriverHarness H(Ratio);

  double Debt = 0;
  uint64_t Expected = 0;
  uint64_t Refs = 0;
  uint64_t State = 0x5eed + GetParam();
  while (Refs < 50'000'000) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t Pick = State >> 33;
    uint32_t Words = 0;
    switch (Pick % 8) {
    case 0:
      break;
    case 1:
      Words = 1;
      break;
    case 2:
      Words = 100'000 + static_cast<uint32_t>(Pick >> 3) % 1'000'000;
      break;
    default:
      Words = static_cast<uint32_t>(Pick >> 3) % 2000;
      break;
    }
    H.Drive.execute(AllocEvent::makeStackTouch(Words, AccessKind::Read));
    for (uint32_t I = 0; I != Words; ++I) {
      Debt += Ratio;
      const auto Whole = static_cast<uint64_t>(Debt);
      if (Whole > 0) {
        Expected += Whole;
        Debt -= static_cast<double>(Whole);
      }
    }
    Refs += Words;
    ASSERT_EQ(H.Cost.appInstructions(), Expected)
        << "ratio " << Ratio << " after " << Refs << " references";
  }
  EXPECT_EQ(H.Drive.appRefs(), Refs);
}

INSTANTIATE_TEST_SUITE_P(EveryRatio, DriverChargeTest,
                         testing::Range(0, static_cast<int>(WorkloadId::Cfrac) +
                                               3));

TEST(DriverDeathTest, RejectsBadInstrPerRef) {
  // Non-finite, negative, too large, and a fraction below 2^-64.
  for (double Bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), -1.0, -1e-9,
                     std::ldexp(1.0, 32), 1e-30})
    EXPECT_DEATH(DriverHarness{Bad}, "instructions per reference") << Bad;
  // The extreme accepted ratios charge exactly.
  DriverHarness Largest(std::ldexp(1.0, 32) - 0.5);
  Largest.Drive.execute(AllocEvent::makeStackTouch(2, AccessKind::Read));
  EXPECT_EQ(Largest.Cost.appInstructions(), 8'589'934'591u);
  DriverHarness Finest(std::ldexp(1.0, -64));
  Finest.Drive.execute(AllocEvent::makeStackTouch(3, AccessKind::Read));
  EXPECT_EQ(Finest.Cost.appInstructions(), 0u);
}

TEST(DriverTest, FreeOfUnknownIdIsFatal) {
  DriverHarness H;
  EXPECT_DEATH(H.Drive.execute(AllocEvent::makeFree(42)), "unknown");
}
