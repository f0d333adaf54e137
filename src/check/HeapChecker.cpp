//===- check/HeapChecker.cpp - Per-allocator invariant walkers ------------===//

#include "check/HeapChecker.h"

#include "alloc/BestFit.h"
#include "alloc/BitmapFit.h"
#include "alloc/Bsd.h"
#include "alloc/CustomAlloc.h"
#include "alloc/FirstFit.h"
#include "alloc/GnuGxx.h"
#include "alloc/GnuLocal.h"
#include "alloc/QuickFit.h"
#include "alloc/SpaceFit.h"
#include "support/Error.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace allocsim;

HeapChecker::~HeapChecker() = default;

namespace {

/// Hard bound on any list traversal: a walker must terminate even when the
/// structure it walks has been corrupted into a lasso that bypasses its
/// sentinel.
constexpr uint64_t MaxWalkSteps = 1u << 20;

std::string hexAddr(Addr Address) {
  std::ostringstream Out;
  Out << "0x" << std::hex << Address;
  return Out.str();
}

void reportTo(CheckContext &Ctx, const char *AllocName, ViolationKind Kind,
              Addr Address, std::string Detail) {
  CheckViolation V;
  V.Kind = Kind;
  V.AllocatorName = AllocName;
  V.Address = Address;
  V.Source = AccessSource::Allocator;
  V.OpIndex = Ctx.OpIndex;
  V.Detail = std::move(Detail);
  Ctx.Log.report(std::move(V));
}

/// Reports when the shadow says [Address, Address+Size) intersects live
/// user data — a free-structure node must never sit inside a live object.
void checkNotLive(CheckContext &Ctx, const char *AllocName, Addr Address,
                  uint32_t Size, const char *What) {
  if (Addr Live; Ctx.Shadow && Ctx.Shadow->findLiveByte(Address, Size, Live))
    reportTo(Ctx, AllocName, ViolationKind::MetadataUserOverlap, Address,
             std::string(What) + " overlaps live user data");
}

//===----------------------------------------------------------------------===//
// Boundary-tag freelists (FirstFit, BestFit, GNU G++)
//===----------------------------------------------------------------------===//

/// Walks one circular doubly-linked freelist, verifying link geometry,
/// boundary tags, and coalescing completeness. Collects the nodes in list
/// order into \p Visited / \p Nodes (Visited is shared across the bins of
/// one allocator so a block listed twice is caught wherever it recurs).
class FreeListWalk {
public:
  FreeListWalk(CheckContext &WalkCtx, const SimHeap &WalkHeap,
               const char *AllocName, std::unordered_set<Addr> &VisitedSet)
      : Ctx(WalkCtx), Heap(WalkHeap), Name(AllocName), Visited(VisitedSet) {}

  /// Nodes of the most recent walk, in list order.
  const std::vector<Addr> &nodes() const { return Nodes; }

  void walk(Addr Sentinel, const std::string &Label) {
    Nodes.clear();
    Addr Node = Heap.peek32(Sentinel + 4);
    uint64_t Steps = 0;
    while (Node != Sentinel) {
      if (++Steps > MaxWalkSteps) {
        reportTo(Ctx, Name, ViolationKind::FreelistCorrupt, Sentinel,
                 Label + ": traversal exceeded " +
                     std::to_string(MaxWalkSteps) +
                     " steps without closing the circle");
        return;
      }
      if (!validBlockAddr(Node)) {
        reportTo(Ctx, Name, ViolationKind::FreelistCorrupt, Node,
                 Label + ": link points outside the heap or is misaligned");
        return;
      }
      if (!Visited.insert(Node).second) {
        reportTo(Ctx, Name, ViolationKind::FreelistCorrupt, Node,
                 Label + ": block reached twice (cycle or double listing)");
        return;
      }

      Addr Next = Heap.peek32(Node + 4);
      if (Next != Sentinel && !validBlockAddr(Next)) {
        reportTo(Ctx, Name, ViolationKind::FreelistCorrupt, Node,
                 Label + ": forward link " + hexAddr(Next) +
                     " points outside the heap or is misaligned");
        return;
      }
      if (Heap.peek32(Next + 8) != Node) {
        reportTo(Ctx, Name, ViolationKind::FreelistCorrupt, Node,
                 Label + ": successor " + hexAddr(Next) +
                     " does not link back");
        return;
      }

      checkBlock(Node, Label);
      checkNotLive(Ctx, Name, Node, 12, "freelist node");
      Nodes.push_back(Node);
      Node = Next;
    }
  }

private:
  bool validBlockAddr(Addr Node) const {
    return (Node & 3) == 0 &&
           Heap.contains(Node, CoalescingAllocator::MinBlockBytes);
  }

  void checkBlock(Addr Node, const std::string &Label) {
    uint32_t Tag = Heap.peek32(Node);
    if (CoalescingAllocator::tagAllocated(Tag)) {
      reportTo(Ctx, Name, ViolationKind::AllocatedOnFreelist, Node,
               Label + ": header " + hexAddr(Tag) +
                   " carries the allocated bit");
      return;
    }
    uint32_t Size = CoalescingAllocator::tagSize(Tag);
    if (Size < CoalescingAllocator::MinBlockBytes ||
        !Heap.contains(Node, Size)) {
      reportTo(Ctx, Name, ViolationKind::BoundaryTagMismatch, Node,
               Label + ": implausible block size " + std::to_string(Size));
      return;
    }
    uint32_t Footer = Heap.peek32(Node + Size - 4);
    if (Footer != Tag) {
      reportTo(Ctx, Name, ViolationKind::BoundaryTagMismatch, Node,
               Label + ": header " + hexAddr(Tag) + " != footer " +
                   hexAddr(Footer));
      return;
    }
    // Coalescing completeness: both neighbours must be allocated (region
    // fenceposts are allocated guard words, so the reads stay in bounds).
    if (Heap.contains(Node + Size, 4) &&
        !CoalescingAllocator::tagAllocated(Heap.peek32(Node + Size)))
      reportTo(Ctx, Name, ViolationKind::MissedCoalesce, Node,
               Label + ": following block " + hexAddr(Node + Size) +
                   " is also free");
    if (Heap.contains(Node - 4, 4) &&
        !CoalescingAllocator::tagAllocated(Heap.peek32(Node - 4)))
      reportTo(Ctx, Name, ViolationKind::MissedCoalesce, Node,
               Label + ": preceding block is also free");
  }

  CheckContext &Ctx;
  const SimHeap &Heap;
  const char *Name;
  std::unordered_set<Addr> &Visited;
  std::vector<Addr> Nodes;
};

class FirstFitChecker final : public HeapChecker {
public:
  explicit FirstFitChecker(const FirstFit &A) : Alloc(A) {}

  const char *allocatorName() const override { return Alloc.name(); }

  void check(CheckContext &Ctx) const override {
    std::unordered_set<Addr> Visited;
    FreeListWalk Walk(Ctx, Alloc.heap(), Alloc.name(), Visited);
    Walk.walk(Alloc.freelistSentinel(), "freelist");

    Addr Rover = Alloc.roverPosition();
    if (Rover != Alloc.freelistSentinel() && Visited.count(Rover) == 0)
      reportTo(Ctx, Alloc.name(), ViolationKind::FreelistCorrupt, Rover,
               "roving pointer is not on the freelist");

    if (Alloc.policy() == FirstFitPolicy::AddressOrdered &&
        !std::is_sorted(Walk.nodes().begin(), Walk.nodes().end()))
      reportTo(Ctx, Alloc.name(), ViolationKind::FreelistCorrupt,
               Alloc.freelistSentinel(),
               "address-ordered freelist is out of order");
  }

private:
  const FirstFit &Alloc;
};

class BestFitChecker final : public HeapChecker {
public:
  explicit BestFitChecker(const BestFit &A) : Alloc(A) {}

  const char *allocatorName() const override { return Alloc.name(); }

  void check(CheckContext &Ctx) const override {
    std::unordered_set<Addr> Visited;
    FreeListWalk Walk(Ctx, Alloc.heap(), Alloc.name(), Visited);
    Walk.walk(Alloc.freelistSentinel(), "freelist");
  }

private:
  const BestFit &Alloc;
};

class SpaceFitChecker final : public HeapChecker {
public:
  explicit SpaceFitChecker(const SpaceFit &A) : Alloc(A) {}

  const char *allocatorName() const override { return Alloc.name(); }

  void check(CheckContext &Ctx) const override {
    std::unordered_set<Addr> Visited;
    FreeListWalk Walk(Ctx, Alloc.heap(), Alloc.name(), Visited);
    Walk.walk(Alloc.freelistSentinel(), "freelist");

    // The space-fitting discipline: the list is totally ordered by
    // (size, address), so the head is always the smallest free block and
    // findFit's first sufficient node is the tightest fit. The walk above
    // already validated every listed node's tags.
    const SimHeap &Heap = Alloc.heap();
    uint32_t PrevSize = 0;
    Addr PrevNode = 0;
    for (Addr Node : Walk.nodes()) {
      uint32_t Size = CoalescingAllocator::tagSize(Heap.peek32(Node));
      if (Size < PrevSize || (Size == PrevSize && Node < PrevNode)) {
        reportTo(Ctx, Alloc.name(), ViolationKind::FreelistCorrupt, Node,
                 "size-sorted freelist is out of order: block of " +
                     std::to_string(Size) + " bytes at " + hexAddr(Node) +
                     " follows block of " + std::to_string(PrevSize) +
                     " bytes at " + hexAddr(PrevNode));
        break;
      }
      PrevSize = Size;
      PrevNode = Node;
    }
  }

private:
  const SpaceFit &Alloc;
};

class GnuGxxChecker final : public HeapChecker {
public:
  explicit GnuGxxChecker(const GnuGxx &A) : Alloc(A) {}

  const char *allocatorName() const override { return Alloc.name(); }

  void check(CheckContext &Ctx) const override {
    const SimHeap &Heap = Alloc.heap();
    std::unordered_set<Addr> Visited;
    FreeListWalk Walk(Ctx, Heap, Alloc.name(), Visited);
    for (unsigned Bin = 0; Bin != GnuGxx::NumBins; ++Bin) {
      Walk.walk(Alloc.binSentinel(Bin), "bin " + std::to_string(Bin));
      for (Addr Node : Walk.nodes()) {
        uint32_t Tag = Heap.peek32(Node);
        if (CoalescingAllocator::tagAllocated(Tag))
          continue; // already reported by the walk
        uint32_t Size = CoalescingAllocator::tagSize(Tag);
        if (Size < CoalescingAllocator::MinBlockBytes)
          continue;
        unsigned Want = GnuGxx::binFor(Size);
        if (Want != Bin)
          reportTo(Ctx, Alloc.name(), ViolationKind::SizeClassMismatch,
                   Node,
                   "block of " + std::to_string(Size) + " bytes in bin " +
                       std::to_string(Bin) + ", belongs in bin " +
                       std::to_string(Want));
      }
    }
  }

private:
  const GnuGxx &Alloc;
};

//===----------------------------------------------------------------------===//
// Segregated LIFO chains (BSD, QuickFit, Custom)
//===----------------------------------------------------------------------===//

/// Walks one null-terminated LIFO chain whose link word lives at
/// \p LinkOffset inside each block. Returns the chain's nodes; stops with
/// a diagnostic on any malformed link.
std::vector<Addr> walkChain(CheckContext &Ctx, const SimHeap &Heap,
                            const char *Name, Addr HeadSlot,
                            uint32_t BlockBytes, uint32_t LinkOffset,
                            const std::string &Label,
                            std::unordered_set<Addr> &Visited) {
  std::vector<Addr> Nodes;
  Addr Node = Heap.peek32(HeadSlot);
  uint64_t Steps = 0;
  while (Node != 0) {
    if (++Steps > MaxWalkSteps) {
      reportTo(Ctx, Name, ViolationKind::FreelistCorrupt, HeadSlot,
               Label + ": traversal exceeded " +
                   std::to_string(MaxWalkSteps) + " steps (cyclic chain)");
      break;
    }
    if ((Node & 3) != 0 || !Heap.contains(Node, BlockBytes)) {
      reportTo(Ctx, Name, ViolationKind::FreelistCorrupt, Node,
               Label + ": link points outside the heap or is misaligned");
      break;
    }
    if (!Visited.insert(Node).second) {
      reportTo(Ctx, Name, ViolationKind::FreelistCorrupt, Node,
               Label + ": block reached twice (cycle or double listing)");
      break;
    }
    checkNotLive(Ctx, Name, Node, BlockBytes, "free block");
    Nodes.push_back(Node);
    Node = Heap.peek32(Node + LinkOffset);
  }
  return Nodes;
}

class BsdChecker final : public HeapChecker {
public:
  explicit BsdChecker(const Bsd &A) : Alloc(A) {}

  const char *allocatorName() const override { return Alloc.name(); }

  void check(CheckContext &Ctx) const override {
    std::unordered_set<Addr> Visited;
    for (unsigned Bucket = 0; Bucket != Bsd::NumBuckets; ++Bucket)
      walkChain(Ctx, Alloc.heap(), Alloc.name(),
                Alloc.freelistSlot(Bucket), Bsd::bucketBytes(Bucket),
                /*LinkOffset=*/0, "bucket " + std::to_string(Bucket),
                Visited);
  }

private:
  const Bsd &Alloc;
};

class QuickFitChecker final : public HeapChecker {
public:
  explicit QuickFitChecker(const QuickFit &A)
      : Alloc(A), GeneralChecker(A.generalBackend()) {}

  const char *allocatorName() const override { return Alloc.name(); }

  void check(CheckContext &Ctx) const override {
    const SimHeap &Heap = Alloc.heap();
    std::unordered_set<Addr> Visited;
    for (unsigned Class = 0; Class != QuickFit::NumFastLists; ++Class) {
      uint32_t BlockBytes = (Class + 1) * 4 + 4;
      std::vector<Addr> Nodes = walkChain(
          Ctx, Heap, Alloc.name(), Alloc.freelistSlot(Class), BlockBytes,
          /*LinkOffset=*/4, "fast list " + std::to_string(Class), Visited);
      // Exact-size membership: a free fast block keeps the header of its
      // class for its whole life.
      for (Addr Node : Nodes) {
        uint32_t Header = Heap.peek32(Node);
        if (Header != QuickFit::fastHeader(Class))
          reportTo(Ctx, Alloc.name(), ViolationKind::SizeClassMismatch,
                   Node,
                   "free fast block of class " + std::to_string(Class) +
                       " has header " + hexAddr(Header) + ", expected " +
                       hexAddr(QuickFit::fastHeader(Class)));
      }
    }
    GeneralChecker.check(Ctx);
  }

private:
  const QuickFit &Alloc;
  GnuGxxChecker GeneralChecker;
};

class CustomChecker final : public HeapChecker {
public:
  explicit CustomChecker(const CustomAlloc &A)
      : Alloc(A), GeneralChecker(A.generalBackend()) {}

  const char *allocatorName() const override { return Alloc.name(); }

  void check(CheckContext &Ctx) const override {
    const SimHeap &Heap = Alloc.heap();
    const SizeClassMap &Map = Alloc.classes();

    // The Figure 9 mapping array in simulated memory must still agree with
    // the synthesized host-side map.
    const std::vector<uint32_t> &Table = Map.table();
    for (uint32_t I = 0; I != Table.size(); ++I) {
      uint32_t Got = Heap.peek32(Alloc.tableSlot(I));
      if (Got != Table[I]) {
        reportTo(Ctx, Alloc.name(), ViolationKind::SizeClassMismatch,
                 Alloc.tableSlot(I),
                 "mapping array entry for size " + std::to_string(4 * I) +
                     " reads " + std::to_string(Got) + ", expected " +
                     std::to_string(Table[I]));
        break;
      }
    }

    std::unordered_set<Addr> Visited;
    for (uint32_t Class = 0; Class != Map.numClasses(); ++Class) {
      uint32_t BlockBytes = Map.classSize(Class) + 4;
      std::vector<Addr> Nodes = walkChain(
          Ctx, Heap, Alloc.name(), Alloc.freelistSlot(Class), BlockBytes,
          /*LinkOffset=*/4, "class list " + std::to_string(Class), Visited);
      for (Addr Node : Nodes) {
        uint32_t Header = Heap.peek32(Node);
        if (Header != CustomAlloc::fastHeader(Class))
          reportTo(Ctx, Alloc.name(), ViolationKind::SizeClassMismatch,
                   Node,
                   "free block of class " + std::to_string(Class) +
                       " has header " + hexAddr(Header));
      }
    }
    GeneralChecker.check(Ctx);
  }

private:
  const CustomAlloc &Alloc;
  GnuGxxChecker GeneralChecker;
};

//===----------------------------------------------------------------------===//
// GnuLocal descriptor table
//===----------------------------------------------------------------------===//

class GnuLocalChecker final : public HeapChecker {
public:
  explicit GnuLocalChecker(const GnuLocal &A) : Alloc(A) {}

  const char *allocatorName() const override { return Alloc.name(); }

  void check(CheckContext &Ctx) const override {
    const SimHeap &Heap = Alloc.heap();
    const char *Name = Alloc.name();
    Addr Table = Alloc.descTableAddr();
    auto DescOf = [&](uint32_t Index) { return Table + 16 * Index; };

    uint32_t Covered =
        (Heap.brk() - Heap.base() + GnuLocal::BlockBytes - 1) >>
        GnuLocal::BlockShift;
    if (Covered > Alloc.descTableCapacity()) {
      reportTo(Ctx, Name, ViolationKind::DescriptorCorrupt, Table,
               "descriptor table covers " +
                   std::to_string(Alloc.descTableCapacity()) +
                   " blocks but the heap spans " + std::to_string(Covered));
      Covered = Alloc.descTableCapacity();
    }

    // Descriptor sanity sweep.
    for (uint32_t I = 0; I != Covered; ++I) {
      uint32_t Type = Heap.peek32(DescOf(I));
      if (Type > GnuLocal::TypeFreeInterior) {
        reportTo(Ctx, Name, ViolationKind::DescriptorCorrupt, DescOf(I),
                 "block " + std::to_string(I) +
                     " has unknown descriptor type " + std::to_string(Type));
        continue;
      }
      if (Type == GnuLocal::TypeFragmented) {
        uint32_t FragLog = Heap.peek32(DescOf(I) + 4);
        if (FragLog < GnuLocal::MinFragLog ||
            FragLog > GnuLocal::MaxFragLog) {
          reportTo(Ctx, Name, ViolationKind::DescriptorCorrupt,
                   DescOf(I) + 4,
                   "block " + std::to_string(I) +
                       " has fragment class 2^" + std::to_string(FragLog));
          continue;
        }
        uint32_t PerBlock = GnuLocal::BlockBytes >> FragLog;
        uint32_t NFree = Heap.peek32(DescOf(I) + 8);
        if (NFree >= PerBlock)
          reportTo(Ctx, Name, ViolationKind::AccountingMismatch,
                   DescOf(I) + 8,
                   "block " + std::to_string(I) + " counts " +
                       std::to_string(NFree) +
                       " free fragments of at most " +
                       std::to_string(PerBlock) +
                       " (a fully free block must be reclaimed)");
      }
    }

    checkRunList(Ctx, Covered, DescOf);
    checkFragLists(Ctx, Covered, DescOf);
  }

private:
  template <typename DescFn>
  void checkRunList(CheckContext &Ctx, uint32_t Covered,
                    DescFn DescOf) const {
    const SimHeap &Heap = Alloc.heap();
    const char *Name = Alloc.name();
    uint32_t PrevIndex = 0;
    uint32_t PrevEnd = 0;
    uint64_t Steps = 0;
    uint32_t Current = Heap.peek32(Alloc.runListHeadSlot());
    while (Current != 0) {
      if (++Steps > MaxWalkSteps) {
        reportTo(Ctx, Name, ViolationKind::FreelistCorrupt,
                 Alloc.runListHeadSlot(),
                 "free-run list traversal exceeded step bound");
        return;
      }
      if (Current >= Covered) {
        reportTo(Ctx, Name, ViolationKind::FreelistCorrupt, DescOf(Current),
                 "free-run index " + std::to_string(Current) +
                     " beyond the heap's " + std::to_string(Covered) +
                     " blocks");
        return;
      }
      if (Heap.peek32(DescOf(Current)) != GnuLocal::TypeFree) {
        reportTo(Ctx, Name, ViolationKind::DescriptorCorrupt,
                 DescOf(Current),
                 "free-run head " + std::to_string(Current) +
                     " has descriptor type " +
                     std::to_string(Heap.peek32(DescOf(Current))));
        return;
      }
      uint32_t Length = Heap.peek32(DescOf(Current) + 4);
      if (Length == 0 || Current + Length > Covered) {
        reportTo(Ctx, Name, ViolationKind::DescriptorCorrupt,
                 DescOf(Current) + 4,
                 "free run at block " + std::to_string(Current) +
                     " has implausible length " + std::to_string(Length));
        return;
      }
      if (PrevEnd != 0 && Current <= PrevIndex) {
        reportTo(Ctx, Name, ViolationKind::FreelistCorrupt,
                 DescOf(Current),
                 "free-run list is not address ordered");
        return;
      }
      if (PrevEnd != 0 && Current == PrevEnd)
        reportTo(Ctx, Name, ViolationKind::MissedCoalesce, DescOf(Current),
                 "free runs at blocks " + std::to_string(PrevIndex) +
                     " and " + std::to_string(Current) +
                     " are adjacent but unmerged");
      if (Heap.peek32(DescOf(Current) + 12) != PrevIndex)
        reportTo(Ctx, Name, ViolationKind::FreelistCorrupt,
                 DescOf(Current) + 12,
                 "free-run back link of block " + std::to_string(Current) +
                     " does not name its predecessor");
      for (uint32_t I = 1; I < Length; ++I) {
        if (Heap.peek32(DescOf(Current + I)) != GnuLocal::TypeFreeInterior) {
          reportTo(Ctx, Name, ViolationKind::DescriptorCorrupt,
                   DescOf(Current + I),
                   "interior block " + std::to_string(Current + I) +
                       " of a free run has type " +
                       std::to_string(Heap.peek32(DescOf(Current + I))));
          break;
        }
      }
      PrevIndex = Current;
      PrevEnd = Current + Length;
      Current = Heap.peek32(DescOf(Current) + 8);
    }
  }

  template <typename DescFn>
  void checkFragLists(CheckContext &Ctx, uint32_t Covered,
                      DescFn DescOf) const {
    const SimHeap &Heap = Alloc.heap();
    const char *Name = Alloc.name();
    std::unordered_map<uint32_t, uint32_t> Tally;

    for (unsigned Log = GnuLocal::MinFragLog; Log <= GnuLocal::MaxFragLog;
         ++Log) {
      Addr Head = Alloc.fragListHead(Log);
      Addr Prev = Head;
      Addr Node = Heap.peek32(Head);
      uint64_t Steps = 0;
      while (Node != Head) {
        if (++Steps > MaxWalkSteps) {
          reportTo(Ctx, Name, ViolationKind::FreelistCorrupt, Head,
                   "fragment list 2^" + std::to_string(Log) +
                       " traversal exceeded step bound");
          break;
        }
        if ((Node & 3) != 0 || !Heap.contains(Node, 8)) {
          reportTo(Ctx, Name, ViolationKind::FreelistCorrupt, Node,
                   "fragment link points outside the heap or is "
                   "misaligned");
          break;
        }
        if (Heap.peek32(Node + 4) != Prev) {
          reportTo(Ctx, Name, ViolationKind::FreelistCorrupt, Node,
                   "fragment back link does not name its predecessor");
          break;
        }
        uint32_t Index =
            (Node - Heap.base()) >> GnuLocal::BlockShift;
        if (Index >= Covered ||
            Heap.peek32(DescOf(Index)) != GnuLocal::TypeFragmented) {
          reportTo(Ctx, Name, ViolationKind::SizeClassMismatch, Node,
                   "free fragment inside block " + std::to_string(Index) +
                       ", which is not fragmented");
          break;
        }
        uint32_t BlockLog = Heap.peek32(DescOf(Index) + 4);
        if (BlockLog != Log)
          reportTo(Ctx, Name, ViolationKind::SizeClassMismatch, Node,
                   "fragment on the 2^" + std::to_string(Log) +
                       " list but its block holds 2^" +
                       std::to_string(BlockLog) + " fragments");
        else if (((Node - Heap.base()) & ((1u << Log) - 1)) != 0)
          reportTo(Ctx, Name, ViolationKind::SizeClassMismatch, Node,
                   "fragment is misaligned for its class");
        checkNotLive(Ctx, Name, Node, 8, "free fragment");
        ++Tally[Index];
        Prev = Node;
        Node = Heap.peek32(Node);
      }
    }

    // Per-block accounting: descriptor counts vs. list membership.
    for (uint32_t I = 0; I != Covered; ++I) {
      if (Heap.peek32(DescOf(I)) != GnuLocal::TypeFragmented)
        continue;
      uint32_t FragLog = Heap.peek32(DescOf(I) + 4);
      if (FragLog < GnuLocal::MinFragLog || FragLog > GnuLocal::MaxFragLog)
        continue; // already reported
      uint32_t NFree = Heap.peek32(DescOf(I) + 8);
      uint32_t Listed = Tally.count(I) ? Tally[I] : 0;
      if (NFree != Listed)
        reportTo(Ctx, Name, ViolationKind::AccountingMismatch, DescOf(I) + 8,
                 "block " + std::to_string(I) + " counts " +
                     std::to_string(NFree) +
                     " free fragments but its class list holds " +
                     std::to_string(Listed));
    }
  }

  const GnuLocal &Alloc;
};

//===----------------------------------------------------------------------===//
// BitmapFit slab map + bitmaps
//===----------------------------------------------------------------------===//

class BitmapFitChecker final : public HeapChecker {
public:
  explicit BitmapFitChecker(const BitmapFit &A)
      : Alloc(A), GeneralChecker(A.generalBackend()) {}

  const char *allocatorName() const override { return Alloc.name(); }

  void check(CheckContext &Ctx) const override {
    const SimHeap &Heap = Alloc.heap();
    const char *Name = Alloc.name();
    Addr Map = Alloc.slabMapAddr();

    // Slab-map sweep: every nonzero entry must name a plausible bucket
    // and a slab whose header line agrees with the map.
    std::unordered_map<uint32_t, uint32_t> SlabBuckets;
    for (uint32_t I = 0; I != Alloc.slabMapCapacity(); ++I) {
      uint32_t Entry = Heap.peek32(Map + 4 * I);
      if (Entry == 0)
        continue;
      uint32_t Bucket = Entry - 1;
      if (Bucket >= BitmapFit::NumBuckets) {
        reportTo(Ctx, Name, ViolationKind::DescriptorCorrupt, Map + 4 * I,
                 "slab-map entry for slab " + std::to_string(I) +
                     " names bucket " + std::to_string(Bucket) + " of " +
                     std::to_string(BitmapFit::NumBuckets));
        continue;
      }
      Addr Slab = Heap.base() + (I << BitmapFit::SlabShift);
      if (!Heap.contains(Slab, BitmapFit::SlabBytes)) {
        reportTo(Ctx, Name, ViolationKind::DescriptorCorrupt, Map + 4 * I,
                 "slab-map entry for slab " + std::to_string(I) +
                     " lies beyond the heap break");
        continue;
      }
      uint32_t Header = Heap.peek32(Slab);
      if (Header != BitmapFit::slabHeaderWord(Bucket)) {
        reportTo(Ctx, Name, ViolationKind::DescriptorCorrupt, Slab,
                 "slab " + std::to_string(I) + " header " + hexAddr(Header) +
                     " does not match map bucket " + std::to_string(Bucket));
        continue;
      }
      checkSlab(Ctx, Slab, Bucket);
      SlabBuckets.emplace(I, Bucket);
    }

    // Bucket slab lists: null-terminated, acyclic, every node a registered
    // slab of exactly this bucket — and every registered slab listed.
    std::unordered_set<Addr> Listed;
    for (unsigned Bucket = 0; Bucket != BitmapFit::NumBuckets; ++Bucket) {
      std::string Label = "bucket " + std::to_string(Bucket) + " slab list";
      Addr Node = Heap.peek32(Alloc.bucketHeadSlot(Bucket));
      uint64_t Steps = 0;
      while (Node != 0) {
        if (++Steps > MaxWalkSteps) {
          reportTo(Ctx, Name, ViolationKind::FreelistCorrupt,
                   Alloc.bucketHeadSlot(Bucket),
                   Label + ": traversal exceeded step bound (cyclic list)");
          break;
        }
        if ((Node & 3) != 0 || !Heap.contains(Node, BitmapFit::SlabBytes)) {
          reportTo(Ctx, Name, ViolationKind::FreelistCorrupt, Node,
                   Label + ": link points outside the heap or is misaligned");
          break;
        }
        if (!Listed.insert(Node).second) {
          reportTo(Ctx, Name, ViolationKind::FreelistCorrupt, Node,
                   Label + ": slab reached twice (cycle or double listing)");
          break;
        }
        uint32_t Index =
            (Node - Heap.base()) >> BitmapFit::SlabShift;
        auto It = SlabBuckets.find(Index);
        if (Heap.base() + (Index << BitmapFit::SlabShift) != Node ||
            It == SlabBuckets.end()) {
          reportTo(Ctx, Name, ViolationKind::FreelistCorrupt, Node,
                   Label + ": node " + hexAddr(Node) +
                       " is not a registered slab boundary");
          break;
        }
        if (It->second != Bucket) {
          reportTo(Ctx, Name, ViolationKind::SizeClassMismatch, Node,
                   Label + ": slab " + std::to_string(Index) +
                       " is registered to bucket " +
                       std::to_string(It->second));
          break;
        }
        Node = Heap.peek32(Node + 8);
      }
    }
    for (const auto &[Index, Bucket] : SlabBuckets) {
      Addr Slab = Heap.base() + (Index << BitmapFit::SlabShift);
      if (Listed.count(Slab) == 0)
        reportTo(Ctx, Name, ViolationKind::FreelistCorrupt, Slab,
                 "registered slab " + std::to_string(Index) +
                     " is missing from bucket " + std::to_string(Bucket) +
                     "'s slab list");
    }

    GeneralChecker.check(Ctx);
  }

private:
  /// Bitmap invariants of one registered slab: trailing (nonexistent) bits
  /// permanently set, used count equal to the set-bit population, spare
  /// word zero, and no free slot inside live user data.
  void checkSlab(CheckContext &Ctx, Addr Slab, uint32_t Bucket) const {
    const SimHeap &Heap = Alloc.heap();
    const char *Name = Alloc.name();
    uint32_t Slots = BitmapFit::slotsPerSlab(Bucket);
    uint32_t SlotSize = BitmapFit::slotBytes(Bucket);

    if (Heap.peek32(Slab + 12) != 0)
      reportTo(Ctx, Name, ViolationKind::DescriptorCorrupt, Slab + 12,
               "slab spare word is nonzero");

    uint32_t Population = 0;
    for (unsigned W = 0; W != BitmapFit::BitmapWords; ++W) {
      uint32_t Word = Heap.peek32(Slab + 16 + 4 * W);
      uint32_t FirstBit = 32 * W;
      uint32_t TrailMask;
      if (Slots >= FirstBit + 32)
        TrailMask = 0;
      else if (Slots <= FirstBit)
        TrailMask = ~0u;
      else
        TrailMask = ~((1u << (Slots - FirstBit)) - 1);
      if ((Word & TrailMask) != TrailMask) {
        reportTo(Ctx, Name, ViolationKind::DescriptorCorrupt,
                 Slab + 16 + 4 * W,
                 "bitmap word " + std::to_string(W) +
                     " clears a bit past the slab's " +
                     std::to_string(Slots) + " slots");
        return;
      }
      uint32_t Real = Word & ~TrailMask;
      Population += static_cast<uint32_t>(std::popcount(Real));
      for (uint32_t Bit = 0; Bit != 32; ++Bit) {
        if (FirstBit + Bit >= Slots)
          break;
        if ((Word >> Bit) & 1u)
          continue;
        Addr SlotAddr =
            Slab + BitmapFit::SlabHeaderBytes + (FirstBit + Bit) * SlotSize;
        checkNotLive(Ctx, Name, SlotAddr, SlotSize, "free bitmap slot");
      }
    }

    uint32_t Used = Heap.peek32(Slab + 4);
    if (Used != Population)
      reportTo(Ctx, Name, ViolationKind::AccountingMismatch, Slab + 4,
               "slab used count " + std::to_string(Used) +
                   " disagrees with bitmap population " +
                   std::to_string(Population));
  }

  const BitmapFit &Alloc;
  GnuGxxChecker GeneralChecker;
};

} // namespace

std::unique_ptr<HeapChecker>
allocsim::createHeapChecker(const Allocator &Alloc) {
  switch (Alloc.kind()) {
  case AllocatorKind::FirstFit:
    return std::make_unique<FirstFitChecker>(
        static_cast<const FirstFit &>(Alloc));
  case AllocatorKind::BestFit:
    return std::make_unique<BestFitChecker>(
        static_cast<const BestFit &>(Alloc));
  case AllocatorKind::GnuGxx:
    return std::make_unique<GnuGxxChecker>(
        static_cast<const GnuGxx &>(Alloc));
  case AllocatorKind::Bsd:
    return std::make_unique<BsdChecker>(static_cast<const Bsd &>(Alloc));
  case AllocatorKind::QuickFit:
    return std::make_unique<QuickFitChecker>(
        static_cast<const QuickFit &>(Alloc));
  case AllocatorKind::Custom:
    return std::make_unique<CustomChecker>(
        static_cast<const CustomAlloc &>(Alloc));
  case AllocatorKind::GnuLocal:
    return std::make_unique<GnuLocalChecker>(
        static_cast<const GnuLocal &>(Alloc));
  case AllocatorKind::BitmapFit:
    return std::make_unique<BitmapFitChecker>(
        static_cast<const BitmapFit &>(Alloc));
  case AllocatorKind::SpaceFit:
    return std::make_unique<SpaceFitChecker>(
        static_cast<const SpaceFit &>(Alloc));
  }
  unreachable("unknown allocator kind");
}
