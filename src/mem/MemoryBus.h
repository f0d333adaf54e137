//===- mem/MemoryBus.h - Reference fan-out and accounting ------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MemoryBus receives every data reference made by the simulated program and
/// allocator, keeps per-source/per-kind reference counts (the "Data Refs"
/// column of the paper's Table 2), and forwards each reference to all
/// attached sinks.
///
/// Delivery is batched: emitted references are staged in a fixed-capacity
/// AccessBatch and handed to the sinks through AccessSink::accessBatch when
/// the batch fills or flush() is called. Counters update at *emit* time, so
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

  /// Emit: counts the reference and stages it for delivery, flushing when
  /// the effective batch capacity is reached.
  void emit(const MemAccess &Access) {
    assert(!Flushing && "emit into the bus from inside a flush");
    ++Total;
    ++BySource[static_cast<unsigned>(Access.Source)];
    ++ByKind[static_cast<unsigned>(Access.Kind)];
    Batch.push(Access);
    if (Batch.size() >= Capacity)
      flush();
  }

  /// Convenience emit.
  void emit(Addr Address, uint8_t Size, AccessKind Kind, AccessSource Source) {
    emit(MemAccess{Address, Size, Kind, Source});
  }

  /// Delivers all staged references to every attached sink, in stream
  /// order. No-op when nothing is pending. Idempotent; cheap when empty.
  void flush();

  /// Sets the effective batch capacity, clamped to
  /// [1, AccessBatch::MaxCapacity]. 1 delivers every emit on its own (one
  /// accessBatch of size 1), the reference the differential tests and the
  /// perf harness compare batching against. Pending references are flushed
  /// first so the change never reorders the stream.
  void setBatchCapacity(size_t NewCapacity);
  size_t batchCapacity() const { return Capacity; }

  /// References staged but not yet delivered.
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
};

} // namespace allocsim

#endif // ALLOCSIM_MEM_MEMORYBUS_H
