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
/// The LRU stack is kept in two parts. The HeadPages most recent pages sit
/// in an unordered head: each has a head slot, recorded in its page-table
/// entry, and Rank[slot] holds its exact stack distance. A page change
/// finds the page through the page table; a head hit at distance d ages
/// every rank below d by one in a fixed-length loop the compiler
/// vectorizes, with no search and no shift. Most page changes end there.
/// Pages below the head live in a Fenwick tree over demotion-time slots
/// (O(log n) per reference): every tail page is older than every head
/// page, so a tail page's distance is HeadPages plus the number of active
/// slots after its own. A miss demotes the head's least recent page (rank
/// HeadPages-1) into the tail and gives its slot to the new page. Slots
/// are compacted when they run out, and the tree grows with the working
/// set, so memory stays proportional to the number of distinct pages, not
/// the trace length.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_VM_PAGESIM_H
#define ALLOCSIM_VM_PAGESIM_H

#include "mem/AccessSink.h"
#include "support/Histogram.h"

#include <array>
#include <cstdint>
#include <vector>

namespace allocsim {

class Telemetry;
class TelemetryHistogram;

/// LRU page-fault simulator over the reference stream.
class PageSim final : public AccessSink {
public:
  /// \p PageBytes must be a power of two; the paper uses 4 KB pages.
  explicit PageSim(uint32_t PageBytes = 4096);

  /// Size of the exact head of the LRU stack. Most page changes of the
  /// paper's workloads land within it.
  static constexpr uint32_t HeadPages = 32;

  /// One loop over the records. A span over pages of 4 bytes or more
  /// touches each page it covers once, with that page's word count; a
  /// single reference (and each word of a span over smaller pages) touches
  /// each page it covers once.
  void accessBatch(const MemAccess *Batch, size_t Count) override;
  bool takesSpans() const override { return true; }

  /// Number of references processed.
  uint64_t references() const { return References; }

  /// Number of distinct pages ever touched.
  uint64_t distinctPages() const { return TableUsed; }

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
  /// page), built from the per-distance counters on each call.
  /// Zero-distance re-references are counted separately.
  Histogram distanceHistogram() const;

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
  /// One page-table entry. Slot is 0 for an empty table entry, the page's
  /// tail slot (1..NextSlot-1) while it sits in the tail, or HeadSlotBase
  /// plus its head slot while it sits in the head.
  struct PageEntry {
    uint64_t Page;
    uint32_t Slot;
  };
  static constexpr uint32_t HeadSlotBase = 0u - HeadPages;
  /// No page number reaches this (addresses are 32-bit).
  static constexpr uint64_t NoPage = ~0ull;

  /// \p Touches consecutive references to \p Page: a page change for the
  /// first unless \p Page is the most recent page, then zero-distance hits.
  void touch(uint64_t Page, uint32_t Touches) {
    References += Touches;
    if (RunLenHist)
      noteRunPage(Page, Touches);
    if (Page == Mru) {
      ZeroDistanceHits += Touches;
    } else {
      changePage(Page);
      ZeroDistanceHits += Touches - 1;
    }
  }

  /// The page-change path for a page other than the most recent one.
  void changePage(uint64_t Page);

  /// Makes head slot \p Slot, at stack distance \p Distance, the most
  /// recent: every rank below \p Distance ages by one.
  void promote(uint32_t Slot, uint8_t Distance) {
    for (uint8_t &R : Rank)
      R += R < Distance;
    Rank[Slot] = 0;
  }

  /// Moves \p Page, the head's least recent page, to the tail's newest
  /// slot.
  void demote(uint64_t Page);

  void countDistance(uint64_t Distance);

  /// Per-page-touch run tracking for the run-length histogram.
  void noteRunPage(uint64_t Page, uint64_t Touches);

  /// Returns the table entry for \p Page; a missing page gets an empty
  /// entry (Slot 0) that the caller fills.
  PageEntry &lookup(uint64_t Page);
  void growTable();

  void fenwickAdd(uint32_t Slot, int Delta);
  uint32_t fenwickPrefix(uint32_t Slot) const;
  void compact();

  uint32_t PageBytes;
  uint32_t PageShift;

  /// The head: HeadPage[j] is the page in head slot j and Rank[j] its
  /// stack distance. The ranks are always a permutation of 0..HeadPages-1;
  /// slots not filled yet hold the highest ranks, so a miss fills them
  /// first. HeadSize grows to HeadPages and stays there, and the tail is
  /// empty until the head is full.
  std::array<uint64_t, HeadPages> HeadPage{};
  std::array<uint8_t, HeadPages> Rank;
  static_assert(HeadPages < 256, "ranks and head slots are bytes");
  uint32_t HeadSize = 0;
  uint64_t Mru = NoPage;

  /// Open-addressing page -> slot table, linear probing, power-of-two size,
  /// at most half full.
  std::vector<PageEntry> Table;
  uint64_t TableUsed = 0;
  uint32_t TableShift;

  /// Fenwick tree over tail slots; Tree[i] covers active-slot counts.
  std::vector<uint32_t> Tree;
  uint32_t NextSlot = 1;
  uint32_t ActiveSlots = 0;

  /// DistanceCounts[d] = page changes at stack distance d (index 0 unused).
  std::vector<uint64_t> DistanceCounts;
  uint64_t ColdFaults = 0;
  uint64_t References = 0;
  uint64_t ZeroDistanceHits = 0;

  /// Run-length telemetry; RunLenHist null when telemetry is off.
  TelemetryHistogram *RunLenHist = nullptr;
  uint64_t CurrentRunPage = 0;
  uint64_t CurrentRunLen = 0;
};

} // namespace allocsim

#endif // ALLOCSIM_VM_PAGESIM_H
