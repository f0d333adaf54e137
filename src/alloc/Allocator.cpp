//===- alloc/Allocator.cpp - Dynamic storage allocator interface ----------===//

#include "alloc/Allocator.h"

#include "alloc/BestFit.h"
#include "alloc/BitmapFit.h"
#include "alloc/Bsd.h"
#include "alloc/FirstFit.h"
#include "alloc/GnuGxx.h"
#include "alloc/GnuLocal.h"
#include "alloc/QuickFit.h"
#include "alloc/SpaceFit.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace allocsim;

Allocator::Allocator(SimHeap &AllocHeap, CostModel &AllocCost)
    : Heap(AllocHeap), Cost(AllocCost) {}

Allocator::~Allocator() = default;

const char *allocsim::allocatorKindName(AllocatorKind Kind) {
  switch (Kind) {
  case AllocatorKind::FirstFit:
    return "FirstFit";
  case AllocatorKind::GnuGxx:
    return "GnuG++";
  case AllocatorKind::Bsd:
    return "BSD";
  case AllocatorKind::GnuLocal:
    return "GnuLocal";
  case AllocatorKind::QuickFit:
    return "QuickFit";
  case AllocatorKind::Custom:
    return "Custom";
  case AllocatorKind::BestFit:
    return "BestFit";
  case AllocatorKind::BitmapFit:
    return "BitmapFit";
  case AllocatorKind::SpaceFit:
    return "SpaceFit";
  }
  unreachable("unknown allocator kind");
}

bool allocsim::tryParseAllocatorKind(const std::string &Name,
                                     AllocatorKind &Kind) {
  std::string Lower = Name;
  std::transform(Lower.begin(), Lower.end(), Lower.begin(),
                 [](unsigned char C) { return std::tolower(C); });
  if (Lower == "firstfit" || Lower == "first-fit")
    Kind = AllocatorKind::FirstFit;
  else if (Lower == "gnug++" || Lower == "gnugxx" || Lower == "g++")
    Kind = AllocatorKind::GnuGxx;
  else if (Lower == "bsd")
    Kind = AllocatorKind::Bsd;
  else if (Lower == "gnulocal" || Lower == "gnu-local")
    Kind = AllocatorKind::GnuLocal;
  else if (Lower == "quickfit" || Lower == "quick-fit")
    Kind = AllocatorKind::QuickFit;
  else if (Lower == "custom")
    Kind = AllocatorKind::Custom;
  else if (Lower == "bestfit" || Lower == "best-fit")
    Kind = AllocatorKind::BestFit;
  else if (Lower == "bitmapfit" || Lower == "bitmap-fit")
    Kind = AllocatorKind::BitmapFit;
  else if (Lower == "spacefit" || Lower == "space-fit")
    Kind = AllocatorKind::SpaceFit;
  else
    return false;
  return true;
}

AllocatorKind allocsim::parseAllocatorKind(const std::string &Name) {
  AllocatorKind Kind;
  if (!tryParseAllocatorKind(Name, Kind))
    reportFatalError("unknown allocator name '" + Name + "'");
  return Kind;
}

void Allocator::attachTelemetry(Telemetry *Registry,
                                const std::string &Prefix) {
  Telem = Registry;
  TelemPrefix = Prefix;
  MallocsProbe = counterProbe("mallocs");
  FreesProbe = counterProbe("frees");
  SearchLenHist = histogramProbe("search_len");
  RequestBytesHist = histogramProbe("request_bytes");
  onTelemetryAttached();
}

Addr Allocator::malloc(uint32_t Size) {
  assert(Size > 0 && "malloc of zero bytes");
  ++Stats.MallocCalls;
  Stats.BytesRequested += Size;
  if (MallocsProbe)
    MallocsProbe->add();
  if (RequestBytesHist)
    RequestBytesHist->record(Size);
  uint64_t SearchedBefore = SearchLenHist ? blocksSearched() : 0;

  Addr Ptr = doMalloc(Size);
  if (SearchLenHist)
    SearchLenHist->record(blocksSearched() - SearchedBefore);

  if (Ptr == 0) {
    // Propagated OOM (a growth path's trySbrk was denied): the request
    // changes no live state and the caller gets the classic null return.
    // The allocators fail before mutating, so the heap structures the
    // invariant walkers see are exactly the pre-call ones.
    ++Stats.FailedMallocs;
    return 0;
  }

  assert((Ptr & 3) == 0 && "allocator returned misaligned object");
  assert(Heap.contains(Ptr, Size) && "allocator returned bad region");
  [[maybe_unused]] bool Inserted = LiveObjects.insert(Ptr, Size);
  assert(Inserted && "allocator returned an address twice");
  if (Shadow)
    Shadow->noteUserRange(*this, Ptr, Size);

  Stats.LiveBytes += Size;
  Stats.MaxLiveBytes = std::max(Stats.MaxLiveBytes, Stats.LiveBytes);
  ++Stats.LiveObjects;
  Stats.MaxLiveObjects = std::max(Stats.MaxLiveObjects, Stats.LiveObjects);
  return Ptr;
}

void Allocator::free(Addr Ptr) {
  const uint32_t *Live = LiveObjects.find(Ptr);
  if (!Live) {
    // Under HeapCheck the double/invalid free becomes a recorded violation
    // with a precise diagnostic (and the free is dropped, so the walk that
    // follows sees an uncorrupted heap); without it, it stays fatal.
    if (Shadow && Shadow->noteInvalidFree(*this, Ptr))
      return;
    reportFatalError("free of unknown or already-freed address");
  }
  const uint32_t Size = *Live;
  Stats.LiveBytes -= Size;
  --Stats.LiveObjects;
  LiveObjects.erase(Ptr);
  ++Stats.FreeCalls;
  if (FreesProbe)
    FreesProbe->add();
  if (Shadow)
    Shadow->noteFreedRange(*this, Ptr, Size);

  doFree(Ptr);
}

uint32_t Allocator::objectSize(Addr Ptr) const {
  const uint32_t *Live = LiveObjects.find(Ptr);
  if (!Live)
    reportFatalError("objectSize of unknown address");
  return *Live;
}

std::unique_ptr<Allocator>
allocsim::createAllocator(AllocatorKind Kind, SimHeap &Heap, CostModel &Cost) {
  switch (Kind) {
  case AllocatorKind::FirstFit:
    return std::make_unique<FirstFit>(Heap, Cost);
  case AllocatorKind::GnuGxx:
    return std::make_unique<GnuGxx>(Heap, Cost);
  case AllocatorKind::Bsd:
    return std::make_unique<Bsd>(Heap, Cost);
  case AllocatorKind::GnuLocal:
    return std::make_unique<GnuLocal>(Heap, Cost);
  case AllocatorKind::QuickFit:
    return std::make_unique<QuickFit>(Heap, Cost);
  case AllocatorKind::Custom:
    reportFatalError(
        "Custom allocator needs a size profile; construct CustomAlloc "
        "directly");
  case AllocatorKind::BestFit:
    return std::make_unique<BestFit>(Heap, Cost);
  case AllocatorKind::BitmapFit:
    return std::make_unique<BitmapFit>(Heap, Cost);
  case AllocatorKind::SpaceFit:
    return std::make_unique<SpaceFit>(Heap, Cost);
  }
  unreachable("unknown allocator kind");
}
