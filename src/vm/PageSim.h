//===- vm/PageSim.h - LRU stack-distance page simulator ---------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-pass LRU page-fault simulation, the role VMSIM plays in the paper
/// ("a fast implementation of a stack simulation algorithm"). Mattson's
/// inclusion property for LRU means a single pass that records the stack
/// distance of every reference yields the page-fault count for *every*
/// memory size at once — which is how the paper draws fault-rate-vs-memory
/// curves (Figures 2 and 3).
///
/// Stack distances are computed with a Fenwick tree over access-time slots
/// (O(log n) per reference) with periodic slot compaction so memory stays
/// proportional to the number of distinct pages, not the trace length.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_VM_PAGESIM_H
#define ALLOCSIM_VM_PAGESIM_H

#include "mem/AccessSink.h"
#include "support/Histogram.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace allocsim {

class Telemetry;
class TelemetryHistogram;

/// LRU page-fault simulator over the reference stream.
class PageSim final : public AccessSink {
public:
  /// \p PageBytes must be a power of two; the paper uses 4 KB pages.
  /// \p SlotCapacity bounds the Fenwick tree between compactions; the
  /// default suits production traces, tests shrink it to exercise
  /// compaction.
  explicit PageSim(uint32_t PageBytes = 4096,
                   uint32_t SlotCapacity = 1u << 21);

  /// A run of consecutive records falling wholly inside the most recently
  /// used page is a run of zero-stack-distance hits, so the whole run
  /// collapses to two counter additions — no hash lookup, no Fenwick work.
  /// Records that leave the page (or straddle one) take touchPages one at
  /// a time.
  void accessBatch(const MemAccess *Batch, size_t Count) override;

  /// Number of references processed.
  uint64_t references() const { return References; }

  /// Number of distinct pages ever touched.
  uint64_t distinctPages() const { return LastSlot.size(); }

  /// Number of page faults for an LRU-managed memory of \p MemoryPages
  /// resident pages. Cold (first-touch) faults are always included.
  uint64_t faults(uint64_t MemoryPages) const;

  /// Fault rate (faults per reference) for the given resident-set size in
  /// pages.
  double faultRate(uint64_t MemoryPages) const;

  /// Fault rate with memory expressed in kilobytes, as the paper's figures
  /// plot it.
  double faultRateForMemoryKb(uint64_t MemoryKb) const;

  /// The stack-distance histogram for distances >= 1 (distance = number of
  /// distinct pages referenced since the previous reference to the same
  /// page). Zero-distance re-references are counted separately.
  const Histogram &distanceHistogram() const { return DistanceHist; }

  /// Re-references to the most recently used page (stack distance zero).
  uint64_t zeroDistanceHits() const { return ZeroDistanceHits; }

  uint32_t pageBytes() const { return PageBytes; }

  /// Attaches (or detaches, with nullptr) a telemetry registry; at full
  /// level a "vm.page_run_len" histogram then records the length of every
  /// maximal run of consecutive page-touches to one page. Runs persist
  /// across batch boundaries, so the histogram does not depend on how the
  /// stream is chunked. Call flushRunTelemetry before reading the snapshot
  /// to close the trailing run.
  void attachTelemetry(Telemetry *Registry);

  /// Records the still-open trailing run, if any.
  void flushRunTelemetry();

private:
  /// The page-change path: touches every page \p Access covers, updating
  /// the stack distances and the LRU order.
  void touchPages(const MemAccess &Access);

  /// Per-page-touch run tracking for the run-length histogram.
  void noteRunPage(uint64_t Page, uint64_t Touches);

  void fenwickAdd(uint32_t Slot, int Delta);
  uint32_t fenwickPrefix(uint32_t Slot) const;
  void compact();

  uint32_t PageBytes;
  uint32_t PageShift;

  /// page-number -> most recent slot (1-based).
  std::unordered_map<uint64_t, uint32_t> LastSlot;
  /// Fenwick tree over slots; Tree[i] covers active-slot counts.
  std::vector<uint32_t> Tree;
  uint32_t NextSlot = 1;
  uint32_t ActiveSlots = 0;

  Histogram DistanceHist;
  uint64_t ColdFaults = 0;
  uint64_t References = 0;
  uint64_t ZeroDistanceHits = 0;
  uint64_t MostRecentPage = 0;
  bool HaveRecent = false;

  /// Run-length telemetry; RunLenHist null when telemetry is off.
  TelemetryHistogram *RunLenHist = nullptr;
  uint64_t CurrentRunPage = 0;
  uint64_t CurrentRunLen = 0;
};

} // namespace allocsim

#endif // ALLOCSIM_VM_PAGESIM_H
