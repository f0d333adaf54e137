//===- check/ShadowHeap.cpp - Byte-state shadow sanitizer -----------------===//

#include "check/ShadowHeap.h"

#include "alloc/Allocator.h"

#include <algorithm>
#include <cstring>
#include <sstream>

using namespace allocsim;

namespace {

/// Word-rounded extent of a user range: allocators hand out word-aligned
/// storage and the driver touches objects word by word.
uint32_t roundToWords(uint32_t Size) { return (Size + 3) & ~3u; }

/// True if all \p Bytes shadow bytes from \p First are UserLive, compared
/// 8 (then 4) at a time.
bool allUserLive(const ByteState *First, uint64_t Bytes) {
  constexpr uint64_t Live8 =
      0x0101010101010101ULL * static_cast<uint8_t>(ByteState::UserLive);
  uint64_t I = 0;
  for (; I + 8 <= Bytes; I += 8) {
    uint64_t Chunk;
    std::memcpy(&Chunk, First + I, 8);
    if (Chunk != Live8)
      return false;
  }
  if (I + 4 <= Bytes) {
    uint32_t Chunk;
    std::memcpy(&Chunk, First + I, 4);
    if (Chunk != static_cast<uint32_t>(Live8))
      return false;
    I += 4;
  }
  for (; I != Bytes; ++I)
    if (First[I] != ByteState::UserLive)
      return false;
  return true;
}

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

void ShadowHeap::setRange(Addr Address, uint32_t Size, ByteState State) {
  // The bytes of [Address, Address + Size) that lie inside the mirror.
  const uint64_t Base = Heap.base();
  const uint64_t Begin = std::max<uint64_t>(Address, Base);
  const uint64_t End =
      std::min<uint64_t>(uint64_t(Address) + Size, Base + syncToBreak());
  if (Begin < End)
    std::fill(States.begin() + (Begin - Base), States.begin() + (End - Base),
              State);
}

bool ShadowHeap::findLiveByte(Addr Address, uint32_t Size,
                              Addr &Found) const {
  const uint64_t Base = Heap.base();
  const uint64_t Begin = std::max<uint64_t>(Address, Base);
  const uint64_t End =
      std::min<uint64_t>(uint64_t(Address) + Size, Base + States.size());
  if (Begin >= End)
    return false;
  const void *Hit = std::memchr(States.data() + (Begin - Base),
                                static_cast<int>(ByteState::UserLive),
                                End - Begin);
  if (!Hit)
    return false;
  Found = static_cast<Addr>(
      Base + (static_cast<const ByteState *>(Hit) - States.data()));
  return true;
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
  // The break cannot move while the bus delivers a batch.
  const uint64_t MirrorBytes = syncToBreak();
  const Addr Base = Heap.base();
  for (size_t Record = 0; Record != Count; ++Record) {
    const MemAccess &Access = Batch[Record];
    // The record's bytes: a single reference's Size, a span's words from
    // its lowest.
    const Addr Low = Access.Direction == SpanDirection::Ascending
                         ? Access.Address
                         : Access.lastWordAddress();
    const uint32_t Bytes =
        Access.isSpan() ? 4 * uint32_t(Access.Words) : Access.Size;
    // Other segments (stack/static) are outside the allocators' domain.
    if (uint64_t(Low) + Bytes <= Base)
      continue;
    // Inside the break, the application may touch live bytes, allocator
    // and tag reads are unconstrained, and their stores over bytes with no
    // live byte create metadata.
    if (Low >= Base && uint64_t(Low - Base) + Bytes <= MirrorBytes) {
      if (Access.Source == AccessSource::Application) {
        if (allUserLive(States.data() + (Low - Base), Bytes))
          continue;
      } else if (Access.Kind == AccessKind::Read) {
        continue;
      } else if (Addr Live; !findLiveByte(Low, Bytes, Live)) {
        setRange(Low, Bytes, ByteState::Metadata);
        continue;
      }
    }
    // Anything else may be a violation: check it one reference at a time,
    // so the violations are exactly those of the per-word records.
    for (uint32_t W = 0; W != Access.Words; ++W)
      checkReference(Access.isSpan() ? Access.word(W) : Access, MirrorBytes);
  }
}

void ShadowHeap::checkReference(const MemAccess &Access,
                                uint64_t MirrorBytes) {
  // Other segments (stack/static) are outside the allocators' domain.
  if (Access.Address < Heap.base())
    return;

  uint64_t Offset = uint64_t(Access.Address) - Heap.base();
  if (Offset + Access.Size > MirrorBytes) {
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
  if (Addr Live; findLiveByte(Access.Address, Access.Size, Live))
    reportViolation(ViolationKind::MetadataUserOverlap, BusAllocName, Live,
                    Access.Source, "allocator store into live user data");
  setRange(Access.Address, Access.Size, ByteState::Metadata);
}

void ShadowHeap::noteUserRange(const Allocator &Alloc, Addr Address,
                               uint32_t Size) {
  drainPending();
  uint32_t Extent = roundToWords(Size);
  if (const uint32_t *Existing = LiveRanges.find(Address)) {
    // Nested delegation (QuickFit/Custom -> GNU G++ backend) annotates the
    // same object twice; the identical range is idempotent.
    if (roundToWords(*Existing) == Extent)
      return;
    reportViolation(ViolationKind::OverlappingAlloc, Alloc.name(), Address,
                    AccessSource::Allocator,
                    "allocation of " + std::to_string(Size) +
                        " bytes at an address already live with " +
                        std::to_string(*Existing) + " bytes");
    return;
  }
  if (Addr Live; findLiveByte(Address, Extent, Live))
    reportViolation(ViolationKind::OverlappingAlloc, Alloc.name(), Live,
                    AccessSource::Allocator,
                    "new object [" + hexAddr(Address) + ", " +
                        hexAddr(Address + Extent) +
                        ") overlaps a live object");
  setRange(Address, Extent, ByteState::UserLive);
  LiveRanges.insert(Address, Size);
  FreedBases.erase(Address);
}

void ShadowHeap::noteFreedRange(const Allocator &Alloc, Addr Address,
                                uint32_t Size) {
  drainPending();
  (void)Alloc;
  // The nested backend re-announces frees the outer allocator already
  // processed; only the first annotation transitions the range.
  if (!LiveRanges.erase(Address))
    return;
  setRange(Address, roundToWords(Size), ByteState::UserFreed);
  FreedBases.insert(Address);
}

void ShadowHeap::noteMetadataRange(const Allocator &Alloc, Addr Address,
                                   uint32_t Size) {
  drainPending();
  if (Addr Live; findLiveByte(Address, Size, Live))
    reportViolation(ViolationKind::MetadataUserOverlap, Alloc.name(), Live,
                    AccessSource::Allocator,
                    "metadata annotation over live user data");
  setRange(Address, Size, ByteState::Metadata);
}

bool ShadowHeap::noteInvalidFree(const Allocator &Alloc, Addr Address) {
  drainPending();
  if (FreedBases.contains(Address))
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
