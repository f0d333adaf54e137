//===- vm/PageSim.cpp - LRU stack-distance page simulator -----------------===//

#include "vm/PageSim.h"

#include "stats/Telemetry.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace allocsim;

namespace {
/// Fibonacci hashing multiplier (2^64 / golden ratio).
constexpr uint64_t HashMultiplier = 0x9E3779B97F4A7C15ull;
constexpr uint32_t InitialTableShift = 64 - 6;
constexpr uint32_t InitialTreeSize = 64;
} // namespace

PageSim::PageSim(uint32_t SimPageBytes)
    : PageBytes(SimPageBytes), TableShift(InitialTableShift) {
  if (PageBytes == 0 || (PageBytes & (PageBytes - 1)) != 0)
    reportFatalError("page size must be a power of two");
  PageShift = static_cast<uint32_t>(__builtin_ctz(PageBytes));
  Table.assign(size_t(1) << (64 - TableShift), PageEntry{0, 0});
  Tree.assign(InitialTreeSize, 0);
  DistanceCounts.assign(2 * HeadPages, 0);
  // Empty slots take the highest ranks, slot 0 the highest of all.
  for (uint32_t Slot = 0; Slot != HeadPages; ++Slot)
    Rank[Slot] = static_cast<uint8_t>(HeadPages - 1 - Slot);
}

PageSim::PageEntry &PageSim::lookup(uint64_t Page) {
  const size_t Mask = Table.size() - 1;
  for (size_t I = (Page * HashMultiplier) >> TableShift;; I = (I + 1) & Mask) {
    PageEntry &Entry = Table[I];
    if (Entry.Slot == 0 || Entry.Page == Page)
      return Entry;
  }
}

void PageSim::growTable() {
  std::vector<PageEntry> Old(Table.size() * 2, PageEntry{0, 0});
  Old.swap(Table);
  --TableShift;
  for (const PageEntry &Entry : Old)
    if (Entry.Slot != 0)
      lookup(Entry.Page) = Entry;
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
  // Renumber the active tail slots 1..ActiveSlots preserving order: bucket
  // the tail's table entries by old slot, then walk the buckets.
  std::vector<uint32_t> EntryBySlot(NextSlot, 0); // table index + 1
  for (size_t I = 0; I != Table.size(); ++I) {
    const uint32_t Slot = Table[I].Slot;
    if (Slot != 0 && Slot < HeadSlotBase)
      EntryBySlot[Slot] = static_cast<uint32_t>(I + 1);
  }
  uint32_t Slot = 0;
  for (uint32_t Index : EntryBySlot)
    if (Index != 0)
      Table[Index - 1].Slot = ++Slot;
  assert(ActiveSlots == Slot && "active slot count diverged");
  NextSlot = Slot + 1;

  // If the working set approaches the slot capacity, compaction alone
  // cannot free enough slots; grow the tree.
  if (2 * (size_t(Slot) + 16) > Tree.size())
    Tree.resize(2 * (size_t(Slot) + 16));
  assert(Tree.size() <= HeadSlotBase && "tail slots reach the head's");
  // Slots 1..Slot are active, and node I covers slots (I - lowbit(I), I].
  for (uint32_t I = 1; I != Tree.size(); ++I) {
    const uint32_t Low = I - (I & (~I + 1));
    Tree[I] = Low >= Slot ? 0 : std::min(I, Slot) - Low;
  }
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

void PageSim::countDistance(uint64_t Distance) {
  if (Distance >= DistanceCounts.size())
    DistanceCounts.resize(
        std::max<size_t>(2 * DistanceCounts.size(), Distance + 1), 0);
  ++DistanceCounts[Distance];
}

void PageSim::demote(uint64_t Page) {
  if (NextSlot >= Tree.size())
    compact();
  const uint32_t Slot = NextSlot++;
  lookup(Page).Slot = Slot;
  fenwickAdd(Slot, 1);
  ++ActiveSlots;
}

void PageSim::changePage(uint64_t Page) {
  assert(Page != Mru && "not a page change");
  Mru = Page;
  PageEntry &Entry = lookup(Page);
  if (Entry.Slot >= HeadSlotBase) {
    const uint32_t Slot = Entry.Slot - HeadSlotBase;
    const uint8_t Distance = Rank[Slot];
    ++DistanceCounts[Distance];
    promote(Slot, Distance);
    return;
  }

  // A miss: the page takes the slot of the head's least recent page.
  constexpr uint8_t Last = HeadPages - 1;
  uint8_t Slot = 0;
  for (uint8_t J = 0; J != HeadPages; ++J)
    Slot |= Rank[J] == Last ? J : 0;
  if (Entry.Slot == 0) {
    ++ColdFaults;
    Entry = {Page, HeadSlotBase + Slot};
    if (2 * ++TableUsed > Table.size())
      growTable();
  } else {
    // Not in the head, so in the tail. Distance = the head's pages plus
    // the tail pages demoted after this one = active slots beyond its own.
    const uint32_t OldSlot = Entry.Slot;
    Entry.Slot = HeadSlotBase + Slot;
    countDistance(HeadPages + ActiveSlots - fenwickPrefix(OldSlot));
    fenwickAdd(OldSlot, -1);
    --ActiveSlots;
  }
  if (HeadSize != HeadPages)
    ++HeadSize;
  else
    demote(HeadPage[Slot]);
  HeadPage[Slot] = Page;
  promote(Slot, Last);
}

void PageSim::accessBatch(const MemAccess *Batch, size_t Count) {
  const uint32_t WordsPerPage = PageBytes / 4;
  for (const MemAccess *Acc = Batch, *End = Batch + Count; Acc != End; ++Acc) {
    if (Acc->isSpan() && PageShift >= 2) {
      // Each page the span covers once, in span order, with its words.
      uint32_t Left = Acc->Words;
      uint32_t Touches = wordsInFirstFrame(*Acc, PageShift);
      forEachSpanFrame(*Acc, PageShift, [&](uint64_t Page) {
        touch(Page, Touches);
        Left -= Touches;
        Touches = std::min(Left, WordsPerPage);
      });
      continue;
    }
    // A single reference, or each word of a span over pages smaller than a
    // word: every page the reference covers, once. A reference straddling
    // a page boundary touches both pages.
    for (uint32_t W = 0; W != Acc->Words; ++W) {
      const FrameRange Pages =
          frameRange(Acc->isSpan() ? Acc->word(W) : *Acc, PageShift);
      for (uint64_t Page = Pages.First; Page <= Pages.Last; ++Page)
        touch(Page, 1);
    }
  }
}

uint64_t PageSim::faults(uint64_t MemoryPages) const {
  // LRU hit iff stack distance < resident pages. A memory of zero pages
  // faults on every reference.
  if (MemoryPages == 0)
    return References;
  // Zero-distance re-references always hit for MemoryPages >= 1.
  uint64_t Faults = ColdFaults;
  for (uint64_t Distance = MemoryPages; Distance < DistanceCounts.size();
       ++Distance)
    Faults += DistanceCounts[Distance];
  return Faults;
}

Histogram PageSim::distanceHistogram() const {
  Histogram Hist;
  for (size_t Distance = 1; Distance < DistanceCounts.size(); ++Distance)
    if (DistanceCounts[Distance] != 0)
      Hist.add(Distance, DistanceCounts[Distance]);
  return Hist;
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
