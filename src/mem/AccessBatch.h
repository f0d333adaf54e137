//===- mem/AccessBatch.h - Fixed-capacity reference batch -------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staging buffer of the batched reference pipeline. The MemoryBus
/// appends every emitted reference to one AccessBatch and hands the filled
/// span to each sink through AccessSink::accessBatch, turning one virtual
/// call per sink per *reference* into one per sink per *batch* — the
/// difference between the simulator's inner loop being dispatch-bound and
/// being bound by the actual cache/paging bookkeeping.
///
/// The batch is a fixed-capacity ring: flush() always drains it completely,
/// so the write cursor simply wraps to the start after every delivery. The
/// *effective* capacity is tunable at runtime between 1 (one record per
/// delivery) and MaxCapacity (the bus default).
///
/// expandSpans() is the one way spans become single references: a sink
/// that works word by word (the oracle caches, the trace writers,
/// CollectingSink) calls it in front of its existing loop, and the
/// MemoryBus calls it for every sink that does not take spans. It rewrites
/// a batch as its per-word records, in stream order, into a stack buffer
/// and hands over the buffer a chunk at a time.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_MEM_ACCESSBATCH_H
#define ALLOCSIM_MEM_ACCESSBATCH_H

#include "mem/MemAccess.h"

#include <algorithm>
#include <array>
#include <cstddef>

namespace allocsim {

/// Fixed-capacity staging buffer for MemAccess records.
struct AccessBatch {
  /// Hard capacity of the ring. 256 records (2 KB) keeps the batch resident
  /// in L1 while amortizing virtual dispatch ~256x; measured throughput is
  /// flat beyond this point.
  static constexpr size_t MaxCapacity = 256;

  std::array<MemAccess, MaxCapacity> Records;
  size_t Fill = 0;

  const MemAccess *data() const { return Records.data(); }
  size_t size() const { return Fill; }
  bool empty() const { return Fill == 0; }

  /// Appends one record; the caller checks capacity (the bus flushes when
  /// its effective capacity is reached).
  void push(const MemAccess &Access) { Records[Fill++] = Access; }

  void clear() { Fill = 0; }
};

/// Calls \p Consume(const MemAccess *Records, size_t Count) over the
/// word-by-word expansion of \p Batch, in stream order and in chunks of at
/// most AccessBatch::MaxCapacity single references. A batch holding no span
/// is passed through in place, in chunks of the same bound.
template <typename ConsumeFn>
void expandSpans(const MemAccess *Batch, size_t Count, ConsumeFn &&Consume) {
  size_t FirstSpan = 0;
  while (FirstSpan != Count && !Batch[FirstSpan].isSpan())
    ++FirstSpan;
  if (FirstSpan == Count) {
    for (size_t Done = 0; Done != Count;) {
      const size_t Chunk = std::min(Count - Done, AccessBatch::MaxCapacity);
      Consume(Batch + Done, Chunk);
      Done += Chunk;
    }
    return;
  }
  MemAccess Buffer[AccessBatch::MaxCapacity];
  size_t Fill = 0;
  auto FlushIfFull = [&] {
    if (Fill == AccessBatch::MaxCapacity) {
      Consume(static_cast<const MemAccess *>(Buffer), Fill);
      Fill = 0;
    }
  };
  for (size_t I = 0; I != Count; ++I) {
    const MemAccess &Record = Batch[I];
    if (!Record.isSpan()) {
      Buffer[Fill++] = Record;
      FlushIfFull();
      continue;
    }
    // A span fills the buffer a run of words at a time.
    MemAccess Word = Record.word(0);
    const Addr Step =
        Record.Direction == SpanDirection::Ascending ? 4 : Addr(-4);
    for (size_t Left = Record.Words; Left != 0;) {
      const size_t Run = std::min(Left, AccessBatch::MaxCapacity - Fill);
      MemAccess *Out = Buffer + Fill;
      for (size_t W = 0; W != Run; ++W) {
        Out[W] = Word;
        Word.Address += Step;
      }
      Fill += Run;
      Left -= Run;
      FlushIfFull();
    }
  }
  if (Fill != 0)
    Consume(static_cast<const MemAccess *>(Buffer), Fill);
}

} // namespace allocsim

#endif // ALLOCSIM_MEM_ACCESSBATCH_H
