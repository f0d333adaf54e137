//===- tests/trace_test.cpp - Trace serialization tests -------------------===//

#include "trace/AllocEvents.h"
#include "trace/RefTrace.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace allocsim;

namespace {

std::vector<MemAccess> sampleAccesses() {
  return {
      {0x10000000, 4, AccessKind::Read, AccessSource::Application},
      {0x10000abc, 8, AccessKind::Write, AccessSource::Allocator},
      {0xfffffffc, 4, AccessKind::Read, AccessSource::TagEmulation},
      {0x00000000, 1, AccessKind::Write, AccessSource::Application},
  };
}

bool sameAccess(const MemAccess &A, const MemAccess &B) {
  return A.Address == B.Address && A.Size == B.Size && A.Kind == B.Kind &&
         A.Source == B.Source;
}

} // namespace

TEST(RefTraceTest, BinaryRoundTrip) {
  std::stringstream Buffer;
  {
    BinaryTraceWriter Writer(Buffer);
    for (const MemAccess &Access : sampleAccesses())
      Writer.access(Access);
    EXPECT_EQ(Writer.written(), 4u);
  }
  BinaryTraceReader Reader(Buffer);
  for (const MemAccess &Expected : sampleAccesses()) {
    MemAccess Got;
    ASSERT_TRUE(Reader.next(Got));
    EXPECT_TRUE(sameAccess(Expected, Got));
  }
  MemAccess Extra;
  EXPECT_FALSE(Reader.next(Extra));
}

TEST(RefTraceTest, BinaryWriterTakesBatchesOfAnyLength) {
  // One accessBatch far past AccessBatch::MaxCapacity, of single records
  // only and then with a span inside, decodes back record for record.
  std::vector<MemAccess> Singles;
  for (uint32_t I = 0; I != 1000; ++I)
    Singles.push_back(MemAccess{0x1000'0000 + 12 * I, uint8_t(1 + I % 8),
                                I % 3 ? AccessKind::Read : AccessKind::Write,
                                static_cast<AccessSource>(I % 3)});
  std::vector<MemAccess> Mixed(Singles.begin(), Singles.begin() + 100);
  Mixed.push_back(MemAccess{0x2000'0000, 4, AccessKind::Write,
                            AccessSource::Application,
                            SpanDirection::Descending, 700});
  Mixed.insert(Mixed.end(), Singles.begin() + 100, Singles.end());
  for (const std::vector<MemAccess> *Batch : {&Singles, &Mixed}) {
    CollectingSink Words;
    Words.accessBatch(Batch->data(), Batch->size());
    std::stringstream Buffer;
    BinaryTraceWriter Writer(Buffer);
    Writer.accessBatch(Batch->data(), Batch->size());
    ASSERT_EQ(Writer.written(), Words.records().size());
    BinaryTraceReader Reader(Buffer);
    for (const MemAccess &Expected : Words.records()) {
      MemAccess Got;
      ASSERT_TRUE(Reader.next(Got));
      ASSERT_TRUE(sameAccess(Expected, Got));
    }
    MemAccess Extra;
    EXPECT_FALSE(Reader.next(Extra));
  }
}

TEST(RefTraceTest, TextRoundTrip) {
  std::stringstream Buffer;
  {
    TextTraceWriter Writer(Buffer);
    for (const MemAccess &Access : sampleAccesses())
      Writer.access(Access);
  }
  TextTraceReader Reader(Buffer);
  for (const MemAccess &Expected : sampleAccesses()) {
    MemAccess Got;
    ASSERT_TRUE(Reader.next(Got));
    EXPECT_TRUE(sameAccess(Expected, Got));
  }
}

TEST(RefTraceTest, BadMagicIsFatal) {
  std::stringstream Buffer("XXXXjunk");
  EXPECT_DEATH({ BinaryTraceReader Reader(Buffer); }, "magic");
}

TEST(RefTraceTest, TextAddressPast32BitsIsFatal) {
  // Addresses are 32-bit; a wider value must not be truncated silently to
  // 0xffff0000.
  std::stringstream Buffer("R 1ffff0000 4 app\n");
  TextTraceReader Reader(Buffer);
  MemAccess Access;
  EXPECT_DEATH(Reader.next(Access), "text trace: address");
}

TEST(RefTraceTest, TextSizeOutsideByteRangeIsFatal) {
  // Sizes are 0..255; truncation would read 300 as 44 and -1 as 255.
  for (const char *Line : {"R 10000000 300 app\n", "R 10000000 -1 app\n"}) {
    SCOPED_TRACE(Line);
    std::stringstream Buffer(Line);
    TextTraceReader Reader(Buffer);
    MemAccess Access;
    EXPECT_DEATH(Reader.next(Access), "text trace: access size");
  }
}

TEST(RefTraceTest, ReplayIntoSink) {
  std::stringstream Buffer;
  {
    BinaryTraceWriter Writer(Buffer);
    for (const MemAccess &Access : sampleAccesses())
      Writer.access(Access);
  }
  BinaryTraceReader Reader(Buffer);
  CollectingSink Sink;
  EXPECT_EQ(replayTrace(Reader, Sink), 4u);
  EXPECT_EQ(Sink.records().size(), 4u);
}

TEST(AllocEventsTest, RoundTrip) {
  std::vector<AllocEvent> Events = {
      AllocEvent::makeMalloc(1, 24),
      AllocEvent::makeTouch(1, 6, AccessKind::Write),
      AllocEvent::makeStackTouch(12, AccessKind::Read),
      AllocEvent::makeTouch(1, 3, AccessKind::Read),
      AllocEvent::makeFree(1),
  };
  std::stringstream Buffer;
  writeAllocEvents(Buffer, Events);
  std::vector<AllocEvent> Read = readAllocEvents(Buffer);
  ASSERT_EQ(Read.size(), Events.size());
  for (size_t I = 0; I != Events.size(); ++I)
    EXPECT_EQ(Read[I], Events[I]) << "event " << I;
}

TEST(AllocEventsTest, ValidationAcceptsWellFormed) {
  std::vector<AllocEvent> Events = {
      AllocEvent::makeMalloc(1, 8),
      AllocEvent::makeTouch(1, 2, AccessKind::Read),
      AllocEvent::makeFree(1),
      AllocEvent::makeMalloc(1, 8), // id reuse after free is fine
  };
  std::string Why;
  EXPECT_TRUE(validateAllocEvents(Events, &Why)) << Why;
}

TEST(AllocEventsTest, ValidationRejectsDoubleFree) {
  std::vector<AllocEvent> Events = {
      AllocEvent::makeMalloc(1, 8),
      AllocEvent::makeFree(1),
      AllocEvent::makeFree(1),
  };
  std::string Why;
  EXPECT_FALSE(validateAllocEvents(Events, &Why));
  EXPECT_NE(Why.find("double free"), std::string::npos);
}

TEST(AllocEventsTest, ValidationRejectsTouchOfDead) {
  std::vector<AllocEvent> Events = {
      AllocEvent::makeTouch(9, 1, AccessKind::Read),
  };
  EXPECT_FALSE(validateAllocEvents(Events));
}

TEST(AllocEventsTest, ValidationRejectsLiveRemalloc) {
  std::vector<AllocEvent> Events = {
      AllocEvent::makeMalloc(1, 8),
      AllocEvent::makeMalloc(1, 8),
  };
  EXPECT_FALSE(validateAllocEvents(Events));
}

TEST(AllocEventsTest, ValidationRejectsZeroSizeMalloc) {
  std::vector<AllocEvent> Events = {AllocEvent::makeMalloc(1, 0)};
  EXPECT_FALSE(validateAllocEvents(Events));
}
