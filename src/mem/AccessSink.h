//===- mem/AccessSink.h - Consumer interface for references -----*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The consumer interface for the reference stream. Cache simulators, the
/// page-fault simulator, and trace writers all implement AccessSink; the
/// MemoryBus fans each reference out to every attached sink, which is how
/// the paper simulated many cache sizes from a single program execution.
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

  /// Consumes \p Count references, in stream order. This is the one entry
  /// point every sink implements: the MemoryBus hands each staged batch to
  /// every attached sink through it, and trace replays deliver in batches
  /// too.
  virtual void accessBatch(const MemAccess *Batch, size_t Count) = 0;

  /// Consumes one reference as a batch of one. A convenience for tests and
  /// wrappers; sinks do not override it with a second path.
  virtual void access(const MemAccess &Access) { accessBatch(&Access, 1); }
};

} // namespace allocsim

#endif // ALLOCSIM_MEM_ACCESSSINK_H
