//===- mem/AccessSink.h - Consumer interface for references -----*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The consumer interface for the reference stream. Cache simulators, the
/// page-fault simulator, and trace writers all implement AccessSink; the
/// MemoryBus fans each record out to every attached sink, which is how the
/// paper simulated many cache sizes from a single program execution.
///
/// A record is one reference or a span of 4-byte words (MemAccess.h). A
/// sink sees spans only if its takesSpans() says so, and then must give a
/// span exactly the result its single references would. The fast sinks
/// (StackSim's kernels, PageSim, ShadowHeap) handle a span once per block,
/// page or byte range; the library's sinks that work word by word
/// (CacheSim, the trace writers, CollectingSink) take spans too and expand
/// them with expandSpans (AccessBatch.h) in front of their existing loop.
/// Any other sink keeps the one-record-one-reference contract: the
/// MemoryBus hands it each batch's word-by-word expansion instead.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_MEM_ACCESSSINK_H
#define ALLOCSIM_MEM_ACCESSSINK_H

#include "mem/MemAccess.h"

#include <cstddef>

namespace allocsim {

/// Abstract consumer of memory references.
class AccessSink {
public:
  virtual ~AccessSink();

  /// Consumes \p Count records, in stream order. This is the one entry
  /// point every sink implements: the MemoryBus hands each staged batch to
  /// every attached sink through it, and trace replays deliver in batches
  /// too.
  virtual void accessBatch(const MemAccess *Batch, size_t Count) = 0;

  /// True if accessBatch accepts span records. A sink that answers false
  /// (the default) is only ever handed single references: the MemoryBus
  /// expands every batch for it, and code that calls accessBatch directly
  /// must do the same. The answer must not change while the sink is
  /// attached.
  virtual bool takesSpans() const { return false; }

  /// Consumes one record as a batch of one. A convenience for tests and
  /// wrappers; sinks do not override it with a second path.
  virtual void access(const MemAccess &Access) { accessBatch(&Access, 1); }
};

} // namespace allocsim

#endif // ALLOCSIM_MEM_ACCESSSINK_H
