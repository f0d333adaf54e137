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
/// delivery, the reference for the differential tests) and MaxCapacity
/// (the bus default).
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_MEM_ACCESSBATCH_H
#define ALLOCSIM_MEM_ACCESSBATCH_H

#include "mem/MemAccess.h"

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

} // namespace allocsim

#endif // ALLOCSIM_MEM_ACCESSBATCH_H
