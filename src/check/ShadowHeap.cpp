//===- check/ShadowHeap.cpp - Byte-state shadow sanitizer -----------------===//

#include "check/ShadowHeap.h"

#include "alloc/Allocator.h"

#include <algorithm>
#include <sstream>

using namespace allocsim;

namespace {

/// Word-rounded extent of a user range: allocators hand out word-aligned
/// storage and the driver touches objects word by word.
uint32_t roundToWords(uint32_t Size) { return (Size + 3) & ~3u; }

std::string hexAddr(Addr Address) {
  std::ostringstream Out;
  Out << "0x" << std::hex << Address;
  return Out.str();
}

} // namespace

const char *allocsim::byteStateName(ByteState State) {
  switch (State) {
  case ByteState::Unallocated:
    return "unallocated";
  case ByteState::UserLive:
    return "user-live";
  case ByteState::UserFreed:
    return "user-freed";
  case ByteState::Metadata:
    return "metadata";
  }
  return "?";
}

ShadowHeap::ShadowHeap(const SimHeap &ShadowedHeap, ViolationLog &ShadowLog)
    : Heap(ShadowedHeap), Log(ShadowLog) {}

uint32_t ShadowHeap::syncToBreak() {
  uint32_t Span = Heap.heapBytes();
  if (States.size() < Span)
    States.resize(Span, ByteState::Unallocated);
  return Span;
}

ByteState ShadowHeap::byteState(Addr Address) const {
  if (Address < Heap.base())
    return ByteState::Unallocated;
  uint64_t Offset = Address - Heap.base();
  return Offset < States.size() ? States[Offset] : ByteState::Unallocated;
}

bool ShadowHeap::rangeHas(Addr Address, uint32_t Size,
                          ByteState State) const {
  for (uint32_t I = 0; I != Size; ++I)
    if (byteState(Address + I) == State)
      return true;
  return false;
}

void ShadowHeap::setRange(Addr Address, uint32_t Size, ByteState State) {
  uint32_t Span = syncToBreak();
  for (uint32_t I = 0; I != Size; ++I) {
    uint64_t Offset = uint64_t(Address) + I - Heap.base();
    if (Offset < Span)
      States[Offset] = State;
  }
}

void ShadowHeap::reportViolation(ViolationKind Kind, std::string AllocName,
                                 Addr Address, AccessSource Source,
                                 std::string Detail) {
  CheckViolation V;
  V.Kind = Kind;
  V.AllocatorName = std::move(AllocName);
  V.Address = Address;
  V.Source = Source;
  V.OpIndex = OpIndex;
  V.Detail = std::move(Detail);
  Log.report(std::move(V));
}

void ShadowHeap::accessBatch(const MemAccess *Batch, size_t Count) {
  for (size_t Record = 0; Record != Count; ++Record) {
    const MemAccess &Access = Batch[Record];
    if (!Access.isSpan()) {
      checkReference(Access);
      continue;
    }
    if (checkSpanFast(Access))
      continue;
    // Some byte is not in the state the fast check needs: take the words
    // one by one, so the violations come out exactly as per-word records
    // would produce them.
    for (uint32_t W = 0; W != Access.Words; ++W)
      checkReference(Access.word(W));
  }
}

bool ShadowHeap::checkSpanFast(const MemAccess &Span) {
  const Addr Low = Span.Direction == SpanDirection::Ascending
                       ? Span.Address
                       : Span.lastWordAddress();
  const uint64_t Bytes = 4 * uint64_t(Span.Words);
  // Other segments (stack/static) are outside the allocators' domain.
  if (uint64_t(Low) + Bytes <= Heap.base())
    return true;
  if (Low < Heap.base())
    return false;
  const uint64_t Offset = uint64_t(Low) - Heap.base();
  if (Offset + Bytes > syncToBreak())
    return false;
  // Only the driver emits spans, all of them the application's; any other
  // source takes the per-word path.
  if (Span.Source != AccessSource::Application)
    return false;
  const ByteState *First = States.data() + Offset;
  return std::all_of(First, First + Bytes, [](ByteState State) {
    return State == ByteState::UserLive;
  });
}

void ShadowHeap::checkReference(const MemAccess &Access) {
  // Other segments (stack/static) are outside the allocators' domain.
  if (Access.Address < Heap.base())
    return;

  uint32_t Span = syncToBreak();
  uint64_t Offset = uint64_t(Access.Address) - Heap.base();
  if (Offset + Access.Size > Span) {
    reportViolation(ViolationKind::OutOfSegment, BusAllocName,
                    Access.Address, Access.Source,
                    "reference past the segment break " +
                        hexAddr(Heap.brk()));
    return;
  }

  if (Access.Source == AccessSource::Application) {
    // The application may touch only its own live objects; the first
    // byte that is not live is reported.
    uint32_t I = 0;
    while (I != Access.Size && States[Offset + I] == ByteState::UserLive)
      ++I;
    if (I == Access.Size)
      return;
    ByteState State = States[Offset + I];
    ViolationKind Kind = State == ByteState::UserFreed
                             ? ViolationKind::UseAfterFree
                             : State == ByteState::Metadata
                                   ? ViolationKind::MetadataUserOverlap
                                   : ViolationKind::WildAccess;
    reportViolation(Kind, BusAllocName, Access.Address + I, Access.Source,
                    std::string("application ") +
                        (Access.Kind == AccessKind::Write ? "write"
                                                          : "read") +
                        " of " + byteStateName(State) + " byte");
    return;
  }

  // Allocator (and tag-emulation) stores create metadata; storing into a
  // live object is corruption. Reads are unconstrained: allocators
  // legitimately read fresh sbrk storage and their own bookkeeping.
  if (Access.Kind != AccessKind::Write)
    return;
  for (uint32_t I = 0; I != Access.Size; ++I) {
    if (States[Offset + I] == ByteState::UserLive) {
      reportViolation(ViolationKind::MetadataUserOverlap, BusAllocName,
                      Access.Address + I, Access.Source,
                      "allocator store into live user data");
      break;
    }
  }
  for (uint32_t I = 0; I != Access.Size; ++I)
    States[Offset + I] = ByteState::Metadata;
}

void ShadowHeap::noteUserRange(const Allocator &Alloc, Addr Address,
                               uint32_t Size) {
  drainPending();
  uint32_t Extent = roundToWords(Size);
  auto Existing = LiveRanges.find(Address);
  if (Existing != LiveRanges.end()) {
    // Nested delegation (QuickFit/Custom -> GNU G++ backend) annotates the
    // same object twice; the identical range is idempotent.
    if (roundToWords(Existing->second) == Extent)
      return;
    reportViolation(ViolationKind::OverlappingAlloc, Alloc.name(), Address,
                    AccessSource::Allocator,
                    "allocation of " + std::to_string(Size) +
                        " bytes at an address already live with " +
                        std::to_string(Existing->second) + " bytes");
    return;
  }
  for (uint32_t I = 0; I != Extent; ++I) {
    if (byteState(Address + I) == ByteState::UserLive) {
      reportViolation(ViolationKind::OverlappingAlloc, Alloc.name(),
                      Address + I, AccessSource::Allocator,
                      "new object [" + hexAddr(Address) + ", " +
                          hexAddr(Address + Extent) +
                          ") overlaps a live object");
      break;
    }
  }
  setRange(Address, Extent, ByteState::UserLive);
  LiveRanges.emplace(Address, Size);
  FreedBases.erase(Address);
}

void ShadowHeap::noteFreedRange(const Allocator &Alloc, Addr Address,
                                uint32_t Size) {
  drainPending();
  (void)Alloc;
  // The nested backend re-announces frees the outer allocator already
  // processed; only the first annotation transitions the range.
  if (LiveRanges.erase(Address) == 0)
    return;
  setRange(Address, roundToWords(Size), ByteState::UserFreed);
  FreedBases.insert(Address);
}

void ShadowHeap::noteMetadataRange(const Allocator &Alloc, Addr Address,
                                   uint32_t Size) {
  drainPending();
  for (uint32_t I = 0; I != Size; ++I) {
    if (byteState(Address + I) == ByteState::UserLive) {
      reportViolation(ViolationKind::MetadataUserOverlap, Alloc.name(),
                      Address + I, AccessSource::Allocator,
                      "metadata annotation over live user data");
      break;
    }
  }
  setRange(Address, Size, ByteState::Metadata);
}

bool ShadowHeap::noteInvalidFree(const Allocator &Alloc, Addr Address) {
  drainPending();
  if (FreedBases.count(Address))
    reportViolation(ViolationKind::DoubleFree, Alloc.name(), Address,
                    AccessSource::Application,
                    "object was already freed and not reallocated");
  else
    reportViolation(ViolationKind::InvalidFree, Alloc.name(), Address,
                    AccessSource::Application,
                    std::string("address is ") +
                        byteStateName(byteState(Address)));
  return true;
}
