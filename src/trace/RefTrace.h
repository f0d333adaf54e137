//===- trace/RefTrace.h - Reference trace I/O -------------------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization of the data-reference stream. The paper ran its simulators
/// execution-driven precisely to avoid "storing large trace files", and so
/// do we by default — but a trace format is still essential for regression
/// tests, for inspecting allocator behaviour, and for feeding the simulators
/// from external traces. Two encodings are provided, both one entry per
/// single reference (the writers expand spans, so the formats predate them
/// and their bytes do not depend on how the bus grouped the words):
///
///  * binary: 6 bytes per record, magic-tagged, for bulk traces;
///  * text:   one "R|W <hexaddr> <size> <src>" line per record, for humans.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_TRACE_REFTRACE_H
#define ALLOCSIM_TRACE_REFTRACE_H

#include "mem/AccessBatch.h"
#include "mem/AccessSink.h"

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace allocsim {

/// AccessSink that appends every reference to an in-memory vector, spans
/// expanded to their single references. Useful in tests and as a staging
/// buffer for trace files.
class CollectingSink final : public AccessSink {
public:
  void accessBatch(const MemAccess *Batch, size_t Count) override {
    expandSpans(Batch, Count, [this](const MemAccess *Words, size_t N) {
      Records.insert(Records.end(), Words, Words + N);
    });
  }
  bool takesSpans() const override { return true; }

  const std::vector<MemAccess> &records() const { return Records; }
  void clear() { Records.clear(); }

private:
  std::vector<MemAccess> Records;
};

/// AccessSink that keeps every record exactly as delivered, spans intact:
/// the bus's own record stream, for tests and benches that replay it or
/// count its records.
class RecordTap final : public AccessSink {
public:
  void accessBatch(const MemAccess *Batch, size_t Count) override {
    Records.insert(Records.end(), Batch, Batch + Count);
  }
  bool takesSpans() const override { return true; }

  const std::vector<MemAccess> &records() const { return Records; }
  std::vector<MemAccess> takeRecords() { return std::move(Records); }

private:
  std::vector<MemAccess> Records;
};

/// Writes references to a binary stream. Emits a header on construction.
class BinaryTraceWriter final : public AccessSink {
public:
  explicit BinaryTraceWriter(std::ostream &OS);

  /// Encodes the batch into one stack buffer per AccessBatch::MaxCapacity
  /// records and issues one stream write for each.
  void accessBatch(const MemAccess *Batch, size_t Count) override;
  bool takesSpans() const override { return true; }

  /// Number of records written.
  uint64_t written() const { return Count; }

private:
  std::ostream &OS;
  uint64_t Count = 0;
};

/// Reads references from a binary stream produced by BinaryTraceWriter.
class BinaryTraceReader {
public:
  /// Validates the header; a malformed header is a fatal error.
  explicit BinaryTraceReader(std::istream &IS);

  /// Reads the next record into \p Access. Returns false at end of stream.
  bool next(MemAccess &Access);

private:
  std::istream &IS;
};

/// Writes one text line per reference.
class TextTraceWriter final : public AccessSink {
public:
  explicit TextTraceWriter(std::ostream &Stream) : OS(Stream) {}

  void accessBatch(const MemAccess *Batch, size_t Count) override;
  bool takesSpans() const override { return true; }

private:
  std::ostream &OS;
};

/// Parses one text trace line; returns false on end-of-stream, fatal error
/// on malformed input.
class TextTraceReader {
public:
  explicit TextTraceReader(std::istream &Stream) : IS(Stream) {}

  bool next(MemAccess &Access);

private:
  std::istream &IS;
};

/// Replays all records from \p Reader into \p Sink in batches of
/// AccessBatch::MaxCapacity. Returns the number of records replayed.
template <typename ReaderT>
uint64_t replayTrace(ReaderT &Reader, AccessSink &Sink) {
  AccessBatch Batch;
  uint64_t N = 0;
  MemAccess Access;
  while (Reader.next(Access)) {
    Batch.push(Access);
    ++N;
    if (Batch.size() == AccessBatch::MaxCapacity) {
      Sink.accessBatch(Batch.data(), Batch.size());
      Batch.clear();
    }
  }
  if (!Batch.empty())
    Sink.accessBatch(Batch.data(), Batch.size());
  return N;
}

} // namespace allocsim

#endif // ALLOCSIM_TRACE_REFTRACE_H
