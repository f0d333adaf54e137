//===- check/ShadowHeap.h - Byte-state shadow sanitizer ---------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ShadowHeap mirrors every byte of the simulated heap segment with a
/// semantic state, the same technique shadow-memory sanitizers use for real
/// allocators. State transitions come from two feeds:
///
///  * Allocator hooks (HeapStateObserver): malloc marks the returned range
///    UserLive, free marks it UserFreed, and allocators annotate statically
///    carved metadata (sentinels, freelist-head arrays, mapping tables).
///  * The memory bus (AccessSink): allocator and tag-emulation stores mark
///    their targets Metadata, since in this simulator the allocator only
///    ever writes bookkeeping into the heap.
///
/// Every bus reference is validated against the mirror before the state is
/// updated, which catches use-after-free, wild accesses, metadata/user
/// overlap, double frees, and references past the segment break — each
/// reported with the offending allocator, address, and access source. The
/// shadow is a pure observer: it emits no bus traffic and charges no
/// CostModel instructions, so enabling it cannot perturb a measurement.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_CHECK_SHADOWHEAP_H
#define ALLOCSIM_CHECK_SHADOWHEAP_H

#include "check/HeapStateObserver.h"
#include "check/Violation.h"
#include "mem/SimHeap.h"
#include "support/FlatMap.h"

#include <vector>

namespace allocsim {

/// Semantic state of one simulated heap byte.
enum class ByteState : uint8_t {
  /// Obtained from sbrk but never handed out or written by the allocator.
  Unallocated,
  /// Inside an object currently owned by the application.
  UserLive,
  /// Inside an object that was freed and not yet reallocated.
  UserFreed,
  /// Allocator bookkeeping: tags, links, headers, tables, sentinels.
  Metadata,
};

const char *byteStateName(ByteState State);

/// Shadow mirror of a SimHeap; validates the reference stream.
class ShadowHeap final : public AccessSink, public HeapStateObserver {
public:
  ShadowHeap(const SimHeap &Heap, ViolationLog &Log);

  /// AccessSink: validates each bus record in order, folding it into the
  /// mirror (allocator writes become Metadata). The mirror is synced to the
  /// break once per batch. The loop takes each record's byte range once (a
  /// span's words from its lowest) and skips ranges below the heap. Inside
  /// the break it accepts every record that cannot be a violation: an
  /// application range of UserLive bytes only, an allocator or tag read,
  /// and an allocator or tag store over bytes with no UserLive byte (one
  /// Metadata fill). Every other record goes through checkReference one
  /// reference (one span word) at a time, so the violations are exactly
  /// those of the per-word records.
  void accessBatch(const MemAccess *Batch, size_t Count) override;
  bool takesSpans() const override { return true; }

  /// HeapStateObserver hooks (see HeapStateObserver.h). Ranges are rounded
  /// up to whole words: every allocator hands out word-aligned storage and
  /// the driver touches objects at word granularity.
  void noteUserRange(const Allocator &Alloc, Addr Address,
                     uint32_t Size) override;
  void noteFreedRange(const Allocator &Alloc, Addr Address,
                      uint32_t Size) override;
  void noteMetadataRange(const Allocator &Alloc, Addr Address,
                         uint32_t Size) override;
  bool noteInvalidFree(const Allocator &Alloc, Addr Address) override;

  /// Current state of one byte (Unallocated for bytes beyond the break).
  ByteState byteState(Addr Address) const;

  /// Finds the first byte of [Address, Address + Size) the mirror holds
  /// UserLive; false if there is none.
  bool findLiveByte(Addr Address, uint32_t Size, Addr &Found) const;

  /// Sets the malloc/free operation index stamped onto diagnostics.
  void setOpIndex(uint64_t Index) { OpIndex = Index; }

  /// Display name used for bus-level diagnostics (the experiment's outer
  /// allocator; hook-level reports name the exact allocator instead).
  void setAllocatorName(std::string Name) { BusAllocName = std::move(Name); }

  /// Registers the bus to drain before every state transition. The shadow's
  /// verdict on a reference depends only on the interleaving of references
  /// and state transitions (the note* hooks); flushing the bus at the top
  /// of every hook delivers all staged references under the *pre-transition*
  /// state — exactly where a capacity-1 bus delivers them — so the verdicts
  /// do not depend on the batch capacity.
  /// (HeapCheck wires this automatically; null disables draining.)
  void setFlushBus(MemoryBus *Bus) { FlushBus = Bus; }

private:
  /// Delivers staged bus references before a state transition.
  void drainPending() {
    if (FlushBus)
      FlushBus->flush();
  }

  /// Validates one single reference and folds it into the mirror, whose
  /// extent (synced to the break) is \p MirrorBytes.
  void checkReference(const MemAccess &Access, uint64_t MirrorBytes);
  void reportViolation(ViolationKind Kind, std::string AllocName,
                       Addr Address, AccessSource Source,
                       std::string Detail);
  void setRange(Addr Address, uint32_t Size, ByteState State);
  /// Grows the mirror to the current break; returns the mirror span.
  uint32_t syncToBreak();

  const SimHeap &Heap;
  ViolationLog &Log;
  std::vector<ByteState> States;
  /// Live ranges (requested sizes) by base address, to keep
  /// nested-delegation annotations (QuickFit/Custom forwarding to their GNU
  /// G++ backend) idempotent and to distinguish re-annotation from genuine
  /// overlap. Flat tables (support/FlatMap.h), like the driver's and the
  /// allocators'.
  FlatMap<uint32_t> LiveRanges;
  /// Base addresses freed and not since reallocated; distinguishes a double
  /// free from a free of a never-allocated address even after the allocator
  /// reuses the object's first words for links.
  FlatMap<NoValue> FreedBases;
  std::string BusAllocName = "?";
  uint64_t OpIndex = 0;
  /// Drained before every state transition; null when the shadow is used
  /// standalone (tests).
  MemoryBus *FlushBus = nullptr;
};

} // namespace allocsim

#endif // ALLOCSIM_CHECK_SHADOWHEAP_H
