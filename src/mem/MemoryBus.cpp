//===- mem/MemoryBus.cpp - Reference fan-out and accounting ---------------===//

#include "mem/MemoryBus.h"

#include "support/Error.h"

#include <algorithm>
#include <string>

using namespace allocsim;

AccessSink::~AccessSink() = default;

bool MemoryBus::isAttached(const AccessSink *Sink) const {
  return std::find(Sinks.begin(), Sinks.end(), Sink) != Sinks.end() ||
         std::find(PendingAttach.begin(), PendingAttach.end(), Sink) !=
             PendingAttach.end();
}

void MemoryBus::attach(AccessSink *Sink) {
  if (isAttached(Sink))
    return;
  // Mid-flush attaches must not join the fan-out loop currently running
  // over Sinks: the new sink starts with the next batch.
  if (Flushing)
    PendingAttach.push_back(Sink);
  else
    Sinks.push_back(Sink);
}

void MemoryBus::detach(AccessSink *Sink) {
  PendingAttach.erase(
      std::remove(PendingAttach.begin(), PendingAttach.end(), Sink),
      PendingAttach.end());
  if (Flushing) {
    // Null the slot instead of erasing so the fan-out loop's indices stay
    // valid; the hole is compacted when the flush completes.
    for (AccessSink *&Slot : Sinks)
      if (Slot == Sink) {
        Slot = nullptr;
        SinksDirty = true;
      }
    return;
  }
  Sinks.erase(std::remove(Sinks.begin(), Sinks.end(), Sink), Sinks.end());
}

void MemoryBus::compactSinks() {
  Sinks.erase(std::remove(Sinks.begin(), Sinks.end(), nullptr), Sinks.end());
  SinksDirty = false;
}

void MemoryBus::flush() {
  if (Batch.empty())
    return;
  assert(!Flushing && "re-entrant flush");
  Flushing = true;
  // Index loop, not iterators: a sink's accessBatch may attach (deferred to
  // PendingAttach, so Sinks does not grow under us) or detach (slot nulled,
  // size unchanged) during the fan-out. A sink that detaches in the middle
  // of its expanded delivery gets no further chunk.
  for (size_t I = 0; I != Sinks.size(); ++I) {
    AccessSink *Sink = Sinks[I];
    if (!Sink)
      continue;
    if (Sink->takesSpans()) {
      Sink->accessBatch(Batch.data(), Batch.size());
      continue;
    }
    expandSpans(Batch.data(), Batch.size(),
                [&](const MemAccess *Words, size_t Count) {
                  if (Sinks[I])
                    Sinks[I]->accessBatch(Words, Count);
                });
  }
  Batch.clear();
  Flushing = false;
  if (SinksDirty)
    compactSinks();
  if (!PendingAttach.empty()) {
    Sinks.insert(Sinks.end(), PendingAttach.begin(), PendingAttach.end());
    PendingAttach.clear();
  }
}

void MemoryBus::reportBadSpan(Addr Base, uint64_t Words, uint8_t Size,
                              SpanDirection Direction) {
  if (Words == 0)
    reportFatalError("memory bus: empty span record");
  if (Size != 4 || Base % 4 != 0)
    reportFatalError("memory bus: span at " + std::to_string(Base) +
                     " is not made of 4-byte-aligned 4-byte words");
  reportFatalError("memory bus: span of " + std::to_string(Words) +
                   " words at " + std::to_string(Base) + " running " +
                   (Direction == SpanDirection::Ascending ? "up" : "down") +
                   " wraps around the 32-bit address space");
}

void MemoryBus::emitLongSpan(Addr Base, uint32_t Words,
                             SpanDirection Direction, AccessKind Kind,
                             AccessSource Source) {
  // Checked whole, so no split point can hide a wrap.
  if (!spanFits(Base, Words, 4, Direction))
    reportBadSpan(Base, Words, 4, Direction);
  MemAccess Span{Base, 4, Kind, Source, Direction};
  while (true) {
    const uint32_t Chunk = std::min(Words, MaxSpanWords);
    Span.Words = static_cast<uint16_t>(Chunk);
    emit(Span);
    Words -= Chunk;
    if (Words == 0)
      return;
    Span.Address = Span.wordAddress(Chunk);
  }
}

void MemoryBus::accessBatch(const MemAccess *ReplayBatch, size_t Count) {
  for (size_t I = 0; I != Count; ++I)
    emit(ReplayBatch[I]);
}

void MemoryBus::setBatchCapacity(size_t NewCapacity) {
  flush();
  Capacity = std::clamp<size_t>(NewCapacity, 1, AccessBatch::MaxCapacity);
}

void MemoryBus::resetCounters() {
  Total = 0;
  BySource.fill(0);
  ByKind.fill(0);
}
