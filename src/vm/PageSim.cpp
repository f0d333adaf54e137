//===- vm/PageSim.cpp - LRU stack-distance page simulator -----------------===//

#include "vm/PageSim.h"

#include "stats/Telemetry.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace allocsim;

PageSim::PageSim(uint32_t SimPageBytes, uint32_t SlotCapacity)
    : PageBytes(SimPageBytes) {
  if (PageBytes == 0 || (PageBytes & (PageBytes - 1)) != 0)
    reportFatalError("page size must be a power of two");
  if (SlotCapacity < 16)
    reportFatalError("slot capacity too small");
  PageShift = static_cast<uint32_t>(__builtin_ctz(PageBytes));
  Tree.assign(SlotCapacity + 1, 0);
}

void PageSim::fenwickAdd(uint32_t Slot, int Delta) {
  for (uint32_t I = Slot; I < Tree.size(); I += I & (~I + 1))
    Tree[I] = static_cast<uint32_t>(static_cast<int64_t>(Tree[I]) + Delta);
}

uint32_t PageSim::fenwickPrefix(uint32_t Slot) const {
  uint32_t Sum = 0;
  for (uint32_t I = Slot; I != 0; I -= I & (~I + 1))
    Sum += Tree[I];
  return Sum;
}

void PageSim::compact() {
  // Renumber active slots 1..P preserving order.
  std::vector<std::pair<uint32_t, uint64_t>> Order;
  Order.reserve(LastSlot.size());
  for (const auto &[Page, Slot] : LastSlot)
    Order.emplace_back(Slot, Page);
  std::sort(Order.begin(), Order.end());

  // If the working set approaches the slot capacity, compaction alone
  // cannot free enough slots; grow the tree.
  if (2 * (Order.size() + 16) > Tree.size())
    Tree.resize(2 * (Order.size() + 16));

  std::fill(Tree.begin(), Tree.end(), 0);
  uint32_t Slot = 0;
  for (const auto &[OldSlot, Page] : Order) {
    ++Slot;
    LastSlot[Page] = Slot;
    fenwickAdd(Slot, 1);
  }
  NextSlot = Slot + 1;
  assert(ActiveSlots == Slot && "active slot count diverged");
}

void PageSim::attachTelemetry(Telemetry *Registry) {
  RunLenHist = Registry ? Registry->histogram("vm.page_run_len") : nullptr;
}

void PageSim::noteRunPage(uint64_t Page, uint64_t Touches) {
  if (CurrentRunLen != 0 && Page == CurrentRunPage) {
    CurrentRunLen += Touches;
    return;
  }
  if (CurrentRunLen != 0)
    RunLenHist->record(CurrentRunLen);
  CurrentRunPage = Page;
  CurrentRunLen = Touches;
}

void PageSim::flushRunTelemetry() {
  if (RunLenHist && CurrentRunLen != 0)
    RunLenHist->record(CurrentRunLen);
  CurrentRunLen = 0;
}

void PageSim::touchPages(const MemAccess &Acc) {
  // A multi-byte access that straddles a page boundary touches both pages;
  // with 4 KB pages and word accesses this is effectively never taken, but
  // correctness is cheap.
  const FrameRange Pages = frameRange(Acc, PageShift);
  for (uint64_t Page = Pages.First; Page <= Pages.Last; ++Page) {
    ++References;
    if (RunLenHist)
      noteRunPage(Page, 1);
    // Fast path: a re-reference to the most recent page has stack distance
    // zero and leaves the LRU order unchanged. This covers the bulk of a
    // program's references (object sweeps, stack traffic).
    if (HaveRecent && Page == MostRecentPage) {
      ++ZeroDistanceHits;
      continue;
    }
    if (NextSlot >= Tree.size())
      compact();

    auto [It, Inserted] = LastSlot.try_emplace(Page, 0);
    if (Inserted) {
      ++ColdFaults;
    } else {
      uint32_t OldSlot = It->second;
      // Distance = number of distinct pages referenced after this page's
      // previous access = active slots beyond OldSlot.
      uint32_t Distance = ActiveSlots - fenwickPrefix(OldSlot);
      DistanceHist.add(Distance);
      fenwickAdd(OldSlot, -1);
      --ActiveSlots;
    }
    uint32_t Slot = NextSlot++;
    It->second = Slot;
    fenwickAdd(Slot, 1);
    ++ActiveSlots;
    MostRecentPage = Page;
    HaveRecent = true;
  }
}

void PageSim::accessBatch(const MemAccess *Batch, size_t Count) {
  size_t I = 0;
  while (I != Count) {
    if (HaveRecent) {
      // Run-length skip: count records wholly inside the MRU page. Checking
      // First and Last against the same page also routes straddling
      // accesses to touchPages, where they split per page as always.
      const uint64_t Recent = MostRecentPage;
      const uint32_t Shift = PageShift;
      const size_t RunStart = I;
      while (I != Count) {
        const MemAccess &Acc = Batch[I];
        const FrameRange Pages = frameRange(Acc, Shift);
        if (Pages.First != Recent || Pages.Last != Recent)
          break;
        ++I;
      }
      const uint64_t Run = I - RunStart;
      References += Run;
      ZeroDistanceHits += Run;
      // Same decision touchPages makes per record: every record in the
      // skipped run is one page-touch of the MRU page.
      if (RunLenHist && Run != 0)
        noteRunPage(Recent, Run);
      if (I == Count)
        return;
    }
    touchPages(Batch[I]);
    ++I;
  }
}

uint64_t PageSim::faults(uint64_t MemoryPages) const {
  // LRU hit iff stack distance < resident pages. A memory of zero pages
  // faults on every reference.
  if (MemoryPages == 0)
    return References;
  // Zero-distance re-references always hit for MemoryPages >= 1.
  uint64_t Faults = ColdFaults;
  for (const auto &[Distance, Count] : DistanceHist)
    if (Distance >= MemoryPages)
      Faults += Count;
  return Faults;
}

double PageSim::faultRate(uint64_t MemoryPages) const {
  if (References == 0)
    return 0.0;
  return static_cast<double>(faults(MemoryPages)) /
         static_cast<double>(References);
}

double PageSim::faultRateForMemoryKb(uint64_t MemoryKb) const {
  return faultRate(MemoryKb * 1024 / PageBytes);
}
