//===- mem/MemoryBus.h - Reference fan-out and accounting ------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MemoryBus receives every data reference made by the simulated program and
/// allocator, keeps per-source/per-kind reference counts (the "Data Refs"
/// column of the paper's Table 2), and forwards each record to all attached
/// sinks.
///
/// A record is one reference or a span of 4-byte words (MemAccess.h). The
/// bus counts a record's Words, so every count is in references whatever
/// the records look like. emitSpan() splits a sweep longer than
/// MaxSpanWords into several records; a span record that is not made of
/// 4-byte-aligned 4-byte words, or whose words would run past either end
/// of the 32-bit space, is fatal.
///
/// Delivery is batched: emitted records are staged in a fixed-capacity
/// AccessBatch and handed to the sinks through AccessSink::accessBatch when
/// the batch fills or flush() is called. A sink that takes spans
/// (AccessSink::takesSpans) gets the staged batch as it is; any other sink
/// gets its word-by-word expansion, in chunks of at most
/// AccessBatch::MaxCapacity references. Counters update at *emit* time, so
/// totalAccesses() et al. are exact at any moment; sink-side statistics
/// become current at the next flush. The batch capacity starts at
/// AccessBatch::MaxCapacity (see DESIGN.md §10 for the flush-point contract
/// that keeps HeapCheck observers exact under batching).
///
/// attach() and detach() are legal at any time, including from inside a
/// sink's accessBatch during a flush: a sink attached mid-flush starts
/// receiving with the *next* batch, a sink detached mid-flush receives
/// nothing further (not even the remainder of the current fan-out).
/// Emitting into the bus from inside a flush is not supported (the sinks
/// are pure consumers) and asserts.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_MEM_MEMORYBUS_H
#define ALLOCSIM_MEM_MEMORYBUS_H

#include "mem/AccessBatch.h"
#include "mem/AccessSink.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

namespace allocsim {

/// Central reference stream: tallies, batches, and fans out accesses.
class MemoryBus final : public AccessSink {
public:
  /// Attaches \p Sink; it will receive every access emitted after this call
  /// (if attached during a flush, delivery starts with the next batch). The
  /// sink is not owned and must outlive the bus's use.
  void attach(AccessSink *Sink);

  /// Detaches a previously attached sink; it receives nothing after this
  /// call, even mid-fan-out. No-op if not attached. Pending (unflushed)
  /// references emitted while the sink was attached are *not* delivered to
  /// it; callers that need them call flush() first.
  void detach(AccessSink *Sink);

  /// Bulk replay entry (trace readers): counts and stages every record.
  void accessBatch(const MemAccess *Batch, size_t Count) override;
  bool takesSpans() const override { return true; }

  /// Emit: counts the record's references and stages it for delivery,
  /// flushing when the effective batch capacity is reached. A malformed
  /// span (see file comment) is fatal.
  void emit(const MemAccess &Access) {
    assert(!Flushing && "emit into the bus from inside a flush");
    if (Access.isSpan() &&
        !spanFits(Access.Address, Access.Words, Access.Size, Access.Direction))
      reportBadSpan(Access.Address, Access.Words, Access.Size,
                    Access.Direction);
    Total += Access.Words;
    BySource[static_cast<unsigned>(Access.Source)] += Access.Words;
    ByKind[static_cast<unsigned>(Access.Kind)] += Access.Words;
    Batch.push(Access);
    if (Batch.size() >= Capacity)
      flush();
  }

  /// Emits one reference.
  void emit(Addr Address, uint8_t Size, AccessKind Kind, AccessSource Source) {
    emit(MemAccess{Address, Size, Kind, Source});
  }

  /// Emits \p Words 4-byte words stepping from \p Base in \p Direction, as
  /// one record per MaxSpanWords words. Zero words emit nothing.
  void emitSpan(Addr Base, uint32_t Words, SpanDirection Direction,
                AccessKind Kind, AccessSource Source) {
    if (Words - 1 < MaxSpanWords)
      emit(MemAccess{Base, 4, Kind, Source, Direction,
                     static_cast<uint16_t>(Words)});
    else if (Words != 0)
      emitLongSpan(Base, Words, Direction, Kind, Source);
  }

  /// Delivers all staged references to every attached sink, in stream
  /// order. No-op when nothing is pending. Idempotent; cheap when empty.
  void flush();

  /// Sets the effective batch capacity in records, clamped to
  /// [1, AccessBatch::MaxCapacity]. 1 delivers every emitted record on its
  /// own (one accessBatch of size 1). Pending records are flushed first so
  /// the change never reorders the stream.
  void setBatchCapacity(size_t NewCapacity);
  size_t batchCapacity() const { return Capacity; }

  /// Records staged but not yet delivered.
  size_t pendingAccesses() const { return Batch.size(); }

  /// Total references seen (emit-time; includes staged ones).
  uint64_t totalAccesses() const { return Total; }

  /// References from one source.
  uint64_t accessesFrom(AccessSource Source) const {
    return BySource[static_cast<unsigned>(Source)];
  }

  /// Reads (resp. writes) across all sources.
  uint64_t reads() const { return ByKind[0]; }
  uint64_t writes() const { return ByKind[1]; }

  /// Resets counters (sinks stay attached). References already staged stay
  /// staged and are still delivered on the next flush: counting is an
  /// emit-time concept, delivery a flush-time one.
  void resetCounters();

private:
  /// Attached sinks. A slot is nulled (not erased) when its sink detaches
  /// during a flush, so the fan-out loop stays valid; compactSinks() erases
  /// the holes once the flush completes.
  std::vector<AccessSink *> Sinks;
  /// Sinks attached during a flush, adopted when it completes.
  std::vector<AccessSink *> PendingAttach;
  AccessBatch Batch;
  size_t Capacity = AccessBatch::MaxCapacity;
  bool Flushing = false;
  bool SinksDirty = false;

  uint64_t Total = 0;
  std::array<uint64_t, NumAccessSources> BySource{};
  std::array<uint64_t, NumAccessKinds> ByKind{};

  bool isAttached(const AccessSink *Sink) const;
  void compactSinks();
  /// True if \p Words words of \p Size bytes from \p Base, stepping in
  /// \p Direction, form a span: at least one 4-byte-aligned 4-byte word,
  /// all inside the 32-bit space.
  static bool spanFits(Addr Base, uint64_t Words, uint8_t Size,
                       SpanDirection Direction) {
    const uint64_t Reach = 4 * (Words - 1);
    return Words != 0 && Size == 4 && Base % 4 == 0 &&
           (Direction == SpanDirection::Ascending
                ? Base + Reach <= 0xFFFFFFFCull
                : Base >= Reach);
  }
  /// Reports why spanFits rejected a span; fatal.
  [[noreturn]] static void reportBadSpan(Addr Base, uint64_t Words,
                                         uint8_t Size,
                                         SpanDirection Direction);
  /// emitSpan past MaxSpanWords: one record per MaxSpanWords words.
  void emitLongSpan(Addr Base, uint32_t Words, SpanDirection Direction,
                    AccessKind Kind, AccessSource Source);
};

} // namespace allocsim

#endif // ALLOCSIM_MEM_MEMORYBUS_H
