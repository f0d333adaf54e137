//===- tests/mem_test.cpp - SimHeap / MemoryBus tests ---------------------===//

#include "cache/CacheSim.h"
#include "mem/SimHeap.h"
#include "trace/RefTrace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

using namespace allocsim;

TEST(MemoryBusTest, CountsBySourceAndKind) {
  MemoryBus Bus;
  Bus.emit(0x1000, 4, AccessKind::Read, AccessSource::Application);
  Bus.emit(0x1004, 4, AccessKind::Write, AccessSource::Allocator);
  Bus.emit(0x1008, 4, AccessKind::Read, AccessSource::Allocator);
  Bus.emit(0x100c, 4, AccessKind::Write, AccessSource::TagEmulation);

  EXPECT_EQ(Bus.totalAccesses(), 4u);
  EXPECT_EQ(Bus.accessesFrom(AccessSource::Application), 1u);
  EXPECT_EQ(Bus.accessesFrom(AccessSource::Allocator), 2u);
  EXPECT_EQ(Bus.accessesFrom(AccessSource::TagEmulation), 1u);
  EXPECT_EQ(Bus.reads(), 2u);
  EXPECT_EQ(Bus.writes(), 2u);
}

TEST(MemoryBusSpanTest, CountsWordsAndSplitsLongSpans) {
  // A span counts its words, per source and kind too, and emitSpan splits
  // a sweep past MaxSpanWords into records whose words continue each
  // other; a span may end on the last word of the address space.
  MemoryBus Bus;
  CollectingSink Words;
  RecordTap Tap;
  Bus.attach(&Words);
  Bus.attach(&Tap);
  const uint32_t Long = 2 * MaxSpanWords + 7;
  Bus.emitSpan(0x1000'0000, Long, SpanDirection::Ascending, AccessKind::Write,
               AccessSource::Application);
  Bus.emitSpan(0x2000'0000, Long, SpanDirection::Descending, AccessKind::Read,
               AccessSource::Allocator);
  Bus.emitSpan(0xFFFF'FFFC - 4 * 9, 10, SpanDirection::Ascending,
               AccessKind::Read, AccessSource::TagEmulation);
  Bus.emitSpan(0x3000'0000, 0, SpanDirection::Ascending, AccessKind::Read,
               AccessSource::TagEmulation);
  EXPECT_EQ(Bus.totalAccesses(), 2 * uint64_t(Long) + 10);
  EXPECT_EQ(Bus.accessesFrom(AccessSource::Application), Long);
  EXPECT_EQ(Bus.accessesFrom(AccessSource::Allocator), Long);
  EXPECT_EQ(Bus.accessesFrom(AccessSource::TagEmulation), 10u);
  EXPECT_EQ(Bus.writes(), Long);
  EXPECT_EQ(Bus.reads(), uint64_t(Long) + 10);
  Bus.flush();

  ASSERT_EQ(Tap.records().size(), 7u);
  const uint16_t Splits[] = {MaxSpanWords, MaxSpanWords, 7};
  for (size_t I = 0; I != 6; ++I)
    EXPECT_EQ(Tap.records()[I].Words, Splits[I % 3]) << "record " << I;
  ASSERT_EQ(Words.records().size(), 2 * size_t(Long) + 10);
  for (uint32_t I = 0; I != Long; ++I) {
    ASSERT_EQ(Words.records()[I].Address, 0x1000'0000u + 4 * I);
    ASSERT_EQ(Words.records()[Long + I].Address, 0x2000'0000u - 4 * I);
  }
  EXPECT_EQ(Words.records().back().Address, 0xFFFF'FFFCu);
}

TEST(MemoryBusSpanDeathTest, MisalignedSpanIsFatal) {
  MemoryBus Bus;
  EXPECT_DEATH(Bus.emitSpan(0x1002, 2, SpanDirection::Ascending,
                            AccessKind::Read, AccessSource::Application),
               "4-byte-aligned");
  EXPECT_DEATH(Bus.emit(MemAccess{0x1001, 4, AccessKind::Read,
                                  AccessSource::Application,
                                  SpanDirection::Descending, 3}),
               "4-byte-aligned");
  EXPECT_DEATH(Bus.emit(MemAccess{0x1000, 8, AccessKind::Read,
                                  AccessSource::Application,
                                  SpanDirection::Ascending, 3}),
               "4-byte-aligned");
  EXPECT_DEATH(Bus.emit(MemAccess{0x1000, 4, AccessKind::Read,
                                  AccessSource::Application,
                                  SpanDirection::Ascending, 0}),
               "empty span");
}

TEST(MemoryBusSpanDeathTest, WrappingSpanIsFatal) {
  MemoryBus Bus;
  // One word past the top, one word below zero, and a split sweep whose
  // wrap lies beyond its first record.
  EXPECT_DEATH(Bus.emitSpan(0xFFFF'FFFC - 4 * 9, 11, SpanDirection::Ascending,
                            AccessKind::Read, AccessSource::Application),
               "wraps");
  EXPECT_DEATH(Bus.emit(MemAccess{8, 4, AccessKind::Read,
                                  AccessSource::Application,
                                  SpanDirection::Descending, 4}),
               "wraps");
  EXPECT_DEATH(Bus.emitSpan(0xFFFF'FFFC - 4 * (MaxSpanWords + 5),
                            MaxSpanWords + 7, SpanDirection::Ascending,
                            AccessKind::Read, AccessSource::Application),
               "wraps");
}

TEST(MemoryBusSpanTest, SinkThatTakesNoSpansGetsSingleReferences) {
  // A sink that does not take spans sees the word-by-word expansion of
  // every batch, in chunks of at most MaxCapacity, and one that detaches
  // inside its expanded delivery gets no further chunk.
  struct WordSink final : AccessSink {
    void accessBatch(const MemAccess *Batch, size_t Count) override {
      Chunks.push_back(Count);
      Records.insert(Records.end(), Batch, Batch + Count);
      if (Quit) {
        Quit->detach(this);
        Quit = nullptr;
      }
    }
    std::vector<size_t> Chunks;
    std::vector<MemAccess> Records;
    MemoryBus *Quit = nullptr;
  } Plain, Quitter;
  MemoryBus Bus;
  CollectingSink Words;
  Bus.attach(&Plain);
  Bus.attach(&Quitter);
  Bus.attach(&Words);
  Quitter.Quit = &Bus;
  Bus.emit(0x4000, 2, AccessKind::Read, AccessSource::Allocator);
  Bus.emitSpan(0x1000'0000, 600, SpanDirection::Descending, AccessKind::Write,
               AccessSource::Application);
  Bus.emit(0x5000, 8, AccessKind::Write, AccessSource::TagEmulation);
  Bus.flush();

  EXPECT_EQ(Plain.Chunks, (std::vector<size_t>{256, 256, 90}));
  ASSERT_EQ(Plain.Records.size(), Words.records().size());
  for (size_t I = 0; I != Plain.Records.size(); ++I) {
    const MemAccess &Got = Plain.Records[I], &Want = Words.records()[I];
    ASSERT_FALSE(Got.isSpan()) << "record " << I;
    ASSERT_EQ(Got.Address, Want.Address) << "record " << I;
    ASSERT_EQ(Got.Size, Want.Size) << "record " << I;
    ASSERT_EQ(Got.Kind, Want.Kind) << "record " << I;
    ASSERT_EQ(Got.Source, Want.Source) << "record " << I;
  }
  EXPECT_EQ(Quitter.Chunks, (std::vector<size_t>{256}));
}

TEST(AccessBatchTest, ExpandSpansBoundsEveryChunk) {
  // A batch without spans is handed over in place, a chunk at a time.
  std::vector<MemAccess> Singles(600, MemAccess{0x1000, 4});
  std::vector<size_t> Chunks;
  const MemAccess *Next = Singles.data();
  expandSpans(Singles.data(), Singles.size(),
              [&](const MemAccess *Records, size_t Count) {
                EXPECT_EQ(Records, Next);
                Next += Count;
                Chunks.push_back(Count);
              });
  EXPECT_EQ(Chunks, (std::vector<size_t>{256, 256, 88}));
  expandSpans(Singles.data(), 0, [](const MemAccess *, size_t) {
    ADD_FAILURE() << "an empty batch is not delivered";
  });
}

TEST(MemoryBusTest, FansOutToAllSinks) {
  MemoryBus Bus;
  CollectingSink A, B;
  Bus.attach(&A);
  Bus.attach(&B);
  Bus.emit(0x2000, 4, AccessKind::Read, AccessSource::Application);
  Bus.flush();
  EXPECT_EQ(A.records().size(), 1u);
  EXPECT_EQ(B.records().size(), 1u);
  EXPECT_EQ(A.records()[0].Address, 0x2000u);
}

TEST(MemoryBusTest, DetachStopsDelivery) {
  MemoryBus Bus;
  CollectingSink A;
  Bus.attach(&A);
  Bus.emit(0x2000, 4, AccessKind::Read, AccessSource::Application);
  Bus.flush();
  Bus.detach(&A);
  Bus.emit(0x2004, 4, AccessKind::Read, AccessSource::Application);
  Bus.flush();
  EXPECT_EQ(A.records().size(), 1u);
}

TEST(MemoryBusTest, DuplicateAttachDeliversOnce) {
  MemoryBus Bus;
  CollectingSink A;
  Bus.attach(&A);
  Bus.attach(&A);
  Bus.emit(0x2000, 4, AccessKind::Read, AccessSource::Application);
  Bus.flush();
  EXPECT_EQ(A.records().size(), 1u);
}

TEST(MemoryBusTest, ResetCountersKeepsSinks) {
  MemoryBus Bus;
  CollectingSink A;
  Bus.attach(&A);
  Bus.emit(0x2000, 4, AccessKind::Read, AccessSource::Application);
  Bus.resetCounters();
  EXPECT_EQ(Bus.totalAccesses(), 0u);
  Bus.emit(0x2004, 4, AccessKind::Read, AccessSource::Application);
  Bus.flush();
  EXPECT_EQ(A.records().size(), 2u);
}

TEST(SimHeapTest, SbrkGrowsAndZeroFills) {
  MemoryBus Bus;
  SimHeap Heap(Bus);
  EXPECT_EQ(Heap.base(), HeapBase);
  EXPECT_EQ(Heap.brk(), HeapBase);

  Addr First = Heap.sbrk(64);
  EXPECT_EQ(First, HeapBase);
  EXPECT_EQ(Heap.heapBytes(), 64u);
  for (Addr A = First; A < First + 64; A += 4)
    EXPECT_EQ(Heap.peek32(A), 0u);

  Addr Second = Heap.sbrk(32);
  EXPECT_EQ(Second, HeapBase + 64);
  EXPECT_EQ(Heap.heapBytes(), 96u);
}

TEST(SimHeapTest, ContainsChecksBounds) {
  MemoryBus Bus;
  SimHeap Heap(Bus);
  Heap.sbrk(32);
  EXPECT_TRUE(Heap.contains(HeapBase, 32));
  EXPECT_TRUE(Heap.contains(HeapBase + 28, 4));
  EXPECT_FALSE(Heap.contains(HeapBase + 28, 8));
  EXPECT_FALSE(Heap.contains(HeapBase - 4, 4));
}

TEST(SimHeapTest, PokePeekRoundTrip) {
  MemoryBus Bus;
  SimHeap Heap(Bus);
  Heap.sbrk(16);
  Heap.poke32(HeapBase + 8, 0xDEADBEEF);
  EXPECT_EQ(Heap.peek32(HeapBase + 8), 0xDEADBEEFu);
  EXPECT_EQ(Bus.totalAccesses(), 0u) << "poke/peek must be untraced";
}

TEST(SimHeapTest, TracedAccessesEmitOnBus) {
  MemoryBus Bus;
  CollectingSink Sink;
  Bus.attach(&Sink);
  SimHeap Heap(Bus);
  Heap.sbrk(16);

  Heap.store32(HeapBase + 4, 77, AccessSource::Allocator);
  uint32_t Value = Heap.load32(HeapBase + 4, AccessSource::Application);
  EXPECT_EQ(Value, 77u);

  Bus.flush();
  ASSERT_EQ(Sink.records().size(), 2u);
  EXPECT_EQ(Sink.records()[0].Kind, AccessKind::Write);
  EXPECT_EQ(Sink.records()[0].Source, AccessSource::Allocator);
  EXPECT_EQ(Sink.records()[1].Kind, AccessKind::Read);
  EXPECT_EQ(Sink.records()[1].Source, AccessSource::Application);
  EXPECT_EQ(Sink.records()[1].Address, HeapBase + 4);
}

TEST(SimHeapTest, SbrkPastLimitIsFatal) {
  MemoryBus Bus;
  SimHeap Heap(Bus, HeapBase, 4096);
  Heap.sbrk(4096);
  EXPECT_DEATH(Heap.sbrk(4), "heap limit");
}

TEST(SimHeapTest, CustomBase) {
  MemoryBus Bus;
  SimHeap Heap(Bus, 0x2000'0000, 1 << 20);
  EXPECT_EQ(Heap.sbrk(8), 0x2000'0000u);
}

TEST(SimHeapDeathTest, SegmentWrappingAddressSpaceIsFatal) {
  MemoryBus Bus;
  EXPECT_DEATH({ SimHeap Heap(Bus, 0xFFFF'F000, 0x10000); },
               "wraps the 32-bit address space");
}

TEST(SimHeapDeathTest, MisalignedAccessesAreRejected) {
  MemoryBus Bus;
  SimHeap Heap(Bus);
  Heap.sbrk(64);
  EXPECT_DEATH(Heap.load32(HeapBase + 2, AccessSource::Application),
               "misaligned");
  EXPECT_DEATH(Heap.store32(HeapBase + 6, 1, AccessSource::Allocator),
               "misaligned");
}

TEST(SimHeapTest, ContainsRejectsRangesWrappingTheAddressSpace) {
  MemoryBus Bus;
  // A segment deliberately placed at the top of the 32-bit space.
  SimHeap Heap(Bus, 0xFFFF'0000, 0xF000);
  Heap.sbrk(0xF000);
  EXPECT_TRUE(Heap.contains(0xFFFF'0000, 0xF000));
  EXPECT_TRUE(Heap.contains(0xFFFF'EFFC, 4));
  // Address + Size wraps past zero: must be rejected, not accepted via the
  // wrapped comparison.
  EXPECT_FALSE(Heap.contains(0xFFFF'E000, 0x3000));
  EXPECT_FALSE(Heap.contains(0xFFFF'EFFC, 0x2000));
}

//===----------------------------------------------------------------------===//
// Batched delivery: staging, flush points, and fan-out re-entrancy.
//===----------------------------------------------------------------------===//

namespace {

/// Sink that records deliveries and runs an arbitrary action on its first
/// batch — the vehicle for attach/detach-during-fan-out tests.
class ActingSink : public AccessSink {
public:
  std::function<void()> OnFirstBatch;

  void accessBatch(const MemAccess *Batch, size_t Count) override {
    Collected.insert(Collected.end(), Batch, Batch + Count);
    if (OnFirstBatch) {
      auto Action = std::move(OnFirstBatch);
      OnFirstBatch = nullptr;
      Action();
    }
  }

  const std::vector<MemAccess> &records() const { return Collected; }

private:
  std::vector<MemAccess> Collected;
};

void emitN(MemoryBus &Bus, size_t Count, Addr Start = 0x2000) {
  for (size_t I = 0; I != Count; ++I)
    Bus.emit(Start + 4 * I, 4, AccessKind::Read, AccessSource::Application);
}

} // namespace

TEST(MemoryBusBatchTest, StagesUntilCapacityThenDeliversWholeBatch) {
  MemoryBus Bus;
  Bus.setBatchCapacity(4);
  EXPECT_EQ(Bus.batchCapacity(), 4u);
  CollectingSink A;
  Bus.attach(&A);

  emitN(Bus, 3);
  // Counters are exact at emit time even while delivery is pending.
  EXPECT_EQ(Bus.totalAccesses(), 3u);
  EXPECT_EQ(Bus.pendingAccesses(), 3u);
  EXPECT_TRUE(A.records().empty());

  emitN(Bus, 1, 0x3000);
  EXPECT_EQ(Bus.pendingAccesses(), 0u);
  ASSERT_EQ(A.records().size(), 4u);
  EXPECT_EQ(A.records()[3].Address, 0x3000u);
}

TEST(MemoryBusBatchTest, ExplicitFlushDeliversPartialBatch) {
  MemoryBus Bus;
  Bus.setBatchCapacity(8);
  CollectingSink A;
  Bus.attach(&A);
  emitN(Bus, 5);
  EXPECT_TRUE(A.records().empty());
  Bus.flush();
  EXPECT_EQ(A.records().size(), 5u);
  EXPECT_EQ(Bus.pendingAccesses(), 0u);
  Bus.flush(); // idempotent on an empty batch
  EXPECT_EQ(A.records().size(), 5u);
}

TEST(MemoryBusBatchTest, CapacityClampsToRingBounds) {
  MemoryBus Bus;
  EXPECT_EQ(Bus.batchCapacity(), AccessBatch::MaxCapacity) << "the default";
  Bus.setBatchCapacity(0);
  EXPECT_EQ(Bus.batchCapacity(), 1u);
  Bus.setBatchCapacity(AccessBatch::MaxCapacity * 10);
  EXPECT_EQ(Bus.batchCapacity(), AccessBatch::MaxCapacity);
}

TEST(MemoryBusBatchTest, ShrinkingCapacityFlushesStagedRecords) {
  MemoryBus Bus;
  Bus.setBatchCapacity(16);
  CollectingSink A;
  Bus.attach(&A);
  emitN(Bus, 7);
  Bus.setBatchCapacity(1); // must not strand the 7 staged records
  EXPECT_EQ(A.records().size(), 7u);
  EXPECT_EQ(Bus.pendingAccesses(), 0u);
}

TEST(MemoryBusBatchTest, CounterResetMidBatchStillDeliversStagedRecords) {
  // resetCounters zeroes the tallies but the staged references are real
  // history: they must still reach every sink on the next flush.
  MemoryBus Bus;
  Bus.setBatchCapacity(8);
  CollectingSink A;
  Bus.attach(&A);
  emitN(Bus, 3);
  Bus.resetCounters();
  EXPECT_EQ(Bus.totalAccesses(), 0u);
  emitN(Bus, 1, 0x4000);
  Bus.flush();
  EXPECT_EQ(A.records().size(), 4u);
  EXPECT_EQ(Bus.totalAccesses(), 1u);
}

TEST(MemoryBusBatchTest, AttachDuringFanOutSeesNextBatchNotCurrent) {
  MemoryBus Bus;
  Bus.setBatchCapacity(4);
  ActingSink Trigger;
  CollectingSink Late;
  Trigger.OnFirstBatch = [&] { Bus.attach(&Late); };
  Bus.attach(&Trigger);

  emitN(Bus, 4); // flush fires; Late attaches mid-fan-out
  EXPECT_EQ(Trigger.records().size(), 4u);
  EXPECT_TRUE(Late.records().empty()) << "attach must defer to next batch";

  emitN(Bus, 4, 0x5000);
  EXPECT_EQ(Trigger.records().size(), 8u);
  EXPECT_EQ(Late.records().size(), 4u);
}

TEST(MemoryBusBatchTest, DetachDuringFanOutStopsDeliveryImmediately) {
  MemoryBus Bus;
  Bus.setBatchCapacity(4);
  ActingSink Trigger;
  CollectingSink Victim;
  Trigger.OnFirstBatch = [&] { Bus.detach(&Victim); };
  Bus.attach(&Trigger); // fan-out order: Trigger first, Victim second
  Bus.attach(&Victim);

  emitN(Bus, 4);
  EXPECT_EQ(Trigger.records().size(), 4u);
  EXPECT_TRUE(Victim.records().empty())
      << "detach mid-fan-out must stop delivery for the current batch";

  emitN(Bus, 4, 0x5000);
  EXPECT_EQ(Victim.records().size(), 0u);
  EXPECT_EQ(Trigger.records().size(), 8u);
}

TEST(MemoryBusBatchTest, SelfDetachDuringFanOutIsSafe) {
  MemoryBus Bus;
  Bus.setBatchCapacity(2);
  ActingSink Quitter;
  CollectingSink Stayer;
  Quitter.OnFirstBatch = [&] { Bus.detach(&Quitter); };
  Bus.attach(&Quitter);
  Bus.attach(&Stayer);

  emitN(Bus, 2);
  emitN(Bus, 2, 0x6000);
  EXPECT_EQ(Quitter.records().size(), 2u);
  EXPECT_EQ(Stayer.records().size(), 4u);
}

TEST(MemoryBusBatchTest, ReplayBusBatchDelivery) {
  // MemoryBus is itself a sink (trace replay pipes one bus into another);
  // a batch arriving at the bus must recount and restage correctly.
  MemoryBus Upstream, Downstream;
  Upstream.setBatchCapacity(4);
  Downstream.setBatchCapacity(2);
  CollectingSink A;
  Downstream.attach(&A);
  Upstream.attach(&Downstream);

  emitN(Upstream, 4);
  Downstream.flush();
  EXPECT_EQ(Downstream.totalAccesses(), 4u);
  EXPECT_EQ(A.records().size(), 4u);
}

//===----------------------------------------------------------------------===//
// CacheSim edge cases through the batch path.
//===----------------------------------------------------------------------===//

TEST(CacheBatchTest, StraddlingAccessTouchesBothBlocks) {
  CacheConfig Config{/*SizeBytes=*/1024, /*BlockBytes=*/32, /*Assoc=*/1};
  DirectMappedCache Direct(Config);
  SetAssocCache OneWay(Config);
  // 8 bytes starting 4 bytes before a block boundary: two block frames.
  MemAccess Straddle{0x101c, 8, AccessKind::Read, AccessSource::Application};
  Direct.accessBatch(&Straddle, 1);
  OneWay.accessBatch(&Straddle, 1);
  EXPECT_EQ(Direct.stats().Accesses, 2u);
  EXPECT_EQ(Direct.stats().Misses, 2u);
  EXPECT_EQ(OneWay.stats().Accesses, 2u);
  EXPECT_EQ(OneWay.stats().Misses, 2u);
}

TEST(CacheBatchTest, MaxSizeAccessSpansManyBlocks) {
  CacheConfig Config{1024, 32, 1};
  DirectMappedCache Direct(Config);
  SetAssocCache OneWay(Config);
  // The widest encodable access (Size is uint8_t): 255 bytes from a block
  // start covers exactly ceil(255/32) = 8 block frames.
  MemAccess Wide{0x2000, 255, AccessKind::Write, AccessSource::Allocator};
  Direct.accessBatch(&Wide, 1);
  OneWay.accessBatch(&Wide, 1);
  EXPECT_EQ(Direct.stats().Accesses, 8u);
  EXPECT_EQ(OneWay.stats().Accesses, 8u);
  EXPECT_EQ(Direct.stats().Misses, OneWay.stats().Misses);
  EXPECT_EQ(Direct.stats().AccessesBySource[static_cast<size_t>(
                AccessSource::Allocator)],
            8u);
}

TEST(CacheBatchTest, SingleLineCacheThrashesAndHits) {
  // Degenerate geometry: one 32-byte line. Alternating blocks always miss;
  // re-touching the same block always hits.
  CacheConfig Config{32, 32, 1};
  ASSERT_TRUE(Config.valid());
  DirectMappedCache Cache(Config);
  std::vector<MemAccess> Thrash;
  for (int I = 0; I != 10; ++I)
    Thrash.push_back(MemAccess{I % 2 ? 0x1020u : 0x1000u, 4, AccessKind::Read,
                               AccessSource::Application});
  Cache.accessBatch(Thrash.data(), Thrash.size());
  EXPECT_EQ(Cache.stats().Accesses, 10u);
  EXPECT_EQ(Cache.stats().Misses, 10u);

  std::vector<MemAccess> Stay(10, MemAccess{0x1000, 4, AccessKind::Read,
                                            AccessSource::Application});
  Cache.accessBatch(Stay.data(), Stay.size());
  EXPECT_EQ(Cache.stats().Accesses, 20u);
  EXPECT_EQ(Cache.stats().Misses, 11u) << "first touch misses, rest hit";
}

TEST(CacheBatchTest, RandomStreamMatchesOneWaySetAssocAcrossGeometries) {
  // Property check over a pseudorandom stream: DirectMappedCache's hoisted
  // batch loop must equal a SetAssocCache with Assoc = 1 — the same
  // geometry through an independent probe implementation — exactly, under
  // the same deliberately odd chunking, per-set miss profiles included.
  std::vector<MemAccess> Stream;
  uint64_t State = 0x243f6a8885a308d3ULL;
  for (int I = 0; I != 20000; ++I) {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    Addr A = 0x10000 + ((State >> 16) & 0xffff) * 4;
    uint8_t Size = (State >> 33) % 3 == 0 ? 8 : 4;
    AccessKind Kind = (State >> 40) % 4 == 0 ? AccessKind::Write
                                             : AccessKind::Read;
    AccessSource Source = (State >> 45) % 3 == 0
                              ? AccessSource::Allocator
                              : AccessSource::Application;
    Stream.push_back(MemAccess{A, Size, Kind, Source});
  }

  for (CacheConfig Config : {CacheConfig{4 * 1024, 32, 1},
                             CacheConfig{4 * 1024, 16, 1},
                             CacheConfig{2 * 1024, 64, 1},
                             CacheConfig{32, 32, 1}}) {
    SCOPED_TRACE(Config.describe());
    DirectMappedCache Direct(Config);
    SetAssocCache OneWay(Config);
    Direct.enableSetProfile();
    OneWay.enableSetProfile();
    for (size_t I = 0; I < Stream.size(); I += 193) {
      size_t Count = std::min<size_t>(193, Stream.size() - I);
      Direct.accessBatch(Stream.data() + I, Count);
      OneWay.accessBatch(Stream.data() + I, Count);
    }
    const CacheStats &D = Direct.stats();
    const CacheStats &R = OneWay.stats();
    EXPECT_GT(D.Misses, 0u);
    EXPECT_EQ(D.Accesses, R.Accesses);
    EXPECT_EQ(D.Misses, R.Misses);
    for (unsigned Source = 0; Source != NumAccessSources; ++Source) {
      EXPECT_EQ(D.AccessesBySource[Source], R.AccessesBySource[Source]);
      EXPECT_EQ(D.MissesBySource[Source], R.MissesBySource[Source]);
    }
    EXPECT_EQ(Direct.setMissProfile(), OneWay.setMissProfile());
  }
}
