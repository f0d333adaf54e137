//===- alloc/Allocator.h - Dynamic storage allocator interface --*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic-storage-allocation (DSA) interface shared by the five
/// allocators the paper measures. Allocators live entirely inside a SimHeap:
/// free-list links, boundary tags and chunk headers are stored in simulated
/// memory through traced accessors, so every bookkeeping reference the 1993
/// implementations made shows up in the cache and page simulators at a
/// faithful address. Each traced reference and each explicitly charged
/// arithmetic step also adds to the CostModel's allocator instruction count
/// (the paper's Figure 1 metric).
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_ALLOC_ALLOCATOR_H
#define ALLOCSIM_ALLOC_ALLOCATOR_H

#include "check/HeapStateObserver.h"
#include "mem/SimHeap.h"
#include "metrics/CostModel.h"
#include "stats/Telemetry.h"
#include "support/FlatMap.h"

#include <cstdint>
#include <memory>
#include <string>

namespace allocsim {

/// The allocator implementations the paper compares, plus the synthesized
/// CustomAlloc its conclusions advocate.
enum class AllocatorKind {
  FirstFit, ///< Knuth first fit, roving pointer, boundary tags, coalescing.
  GnuGxx,   ///< Doug Lea's segregated first fit (early G++ malloc).
  Bsd,      ///< Chris Kingsley's power-of-two segregated storage (4.2BSD).
  GnuLocal, ///< Mike Haertel's page-chunk GNU malloc.
  QuickFit, ///< Weinstock/Wulf exact-size fast lists + general backend.
  Custom,   ///< Profile-synthesized QuickFit-style allocator (Section 4.4).
  BestFit,  ///< Extension: exhaustive best fit (the paper's "best-fit, etc").
  BitmapFit, ///< Extension: cache-line bitmap fit (Matani & Menghani 2021).
  SpaceFit, ///< Extension: head-first best fit w/ space-fitting (Hakarsa 2024).
};

/// All paper allocators, in the paper's presentation order.
inline constexpr AllocatorKind PaperAllocators[] = {
    AllocatorKind::FirstFit, AllocatorKind::QuickFit, AllocatorKind::GnuGxx,
    AllocatorKind::Bsd, AllocatorKind::GnuLocal};

/// Short display name ("FirstFit", "BSD", ...).
const char *allocatorKindName(AllocatorKind Kind);

/// Parses a display name (case-insensitive); fatal error on unknown name.
AllocatorKind parseAllocatorKind(const std::string &Name);

/// Like parseAllocatorKind, but reports an unknown name by returning false
/// instead of dying (for tools that want to print a diagnostic and exit).
bool tryParseAllocatorKind(const std::string &Name, AllocatorKind &Kind);

/// Usage statistics every allocator tracks.
struct AllocatorStats {
  uint64_t MallocCalls = 0;
  uint64_t FreeCalls = 0;
  /// Sum of all requested sizes.
  uint64_t BytesRequested = 0;
  /// Requested bytes currently live.
  uint64_t LiveBytes = 0;
  /// High-water mark of LiveBytes.
  uint64_t MaxLiveBytes = 0;
  /// Objects currently live.
  uint64_t LiveObjects = 0;
  /// High-water mark of LiveObjects. Together with MaxLiveBytes this is the
  /// statically predictable part of memory pressure: TraceLint computes
  /// both from a script without simulating, and the cross-check test holds
  /// the simulator to the prediction bit-exactly.
  uint64_t MaxLiveObjects = 0;
  /// Calls that returned null because the heap capacity was exhausted
  /// (FaultLab `oom:after=` plans or an explicit SimHeap soft limit).
  /// Counted within MallocCalls; BytesRequested includes the failed
  /// request, the live counters do not.
  uint64_t FailedMallocs = 0;
};

/// Abstract allocator over a simulated heap.
class Allocator {
public:
  Allocator(SimHeap &Heap, CostModel &Cost);
  virtual ~Allocator();

  Allocator(const Allocator &) = delete;
  Allocator &operator=(const Allocator &) = delete;

  /// Allocates \p Size bytes (Size > 0); returns the simulated address of
  /// the object. The address is 4-byte aligned. Returns 0 — the classic
  /// null — when heap capacity is exhausted (a SimHeap soft limit denied
  /// the growth sbrk); a failed call leaves every heap structure and live
  /// counter untouched.
  Addr malloc(uint32_t Size);

  /// Releases an object previously returned by malloc. Passing any other
  /// address is a checked programming error.
  void free(Addr Ptr);

  virtual AllocatorKind kind() const = 0;
  const char *name() const { return allocatorKindName(kind()); }

  const AllocatorStats &stats() const { return Stats; }

  /// Free-structure nodes examined across all searches (0 for allocators
  /// that never search). The paper's explanation of sequential-fit cost.
  virtual uint64_t blocksSearched() const { return 0; }

  /// Bytes obtained from the operating system (sbrk), i.e. the paper's
  /// "Max. Heap Size" column; includes fragmentation and metadata.
  uint32_t heapBytes() const { return Heap.heapBytes(); }

  /// Requested size of the live object at \p Ptr; checked.
  uint32_t objectSize(Addr Ptr) const;

  /// The heap this allocator manages (read-only; invariant walkers use the
  /// untraced peek accessors through it).
  const SimHeap &heap() const { return Heap; }

  /// Attaches (or detaches, with nullptr) a HeapCheck state observer.
  /// malloc/free report user ranges automatically; subclasses additionally
  /// annotate statically carved metadata via onShadowAttached.
  void attachShadow(HeapStateObserver *Observer) {
    Shadow = Observer;
    if (Shadow)
      onShadowAttached();
  }

  /// Attaches (or detaches, with nullptr) a telemetry registry. Instrument
  /// names are "<Prefix>.<name>"; top-level allocators use the default,
  /// hybrid allocators forward to their backend with "<Prefix>.general" so
  /// delegated traffic stays distinguishable. The base wrapper maintains
  /// "<Prefix>.mallocs"/"<Prefix>.frees" counters and, at full level, a
  /// "<Prefix>.search_len" histogram of the per-malloc blocksSearched()
  /// delta (0 for non-searching paths — QuickFit's fast hits must show up
  /// as zero-length searches for mean search length to be comparable) and a
  /// "<Prefix>.request_bytes" histogram of requested sizes — the size-class
  /// distribution TraceLint predicts statically from a script.
  void attachTelemetry(Telemetry *Registry,
                       const std::string &Prefix = "alloc");

protected:
  /// Implementations: return the user address / release it.
  virtual Addr doMalloc(uint32_t Size) = 0;
  virtual void doFree(Addr Ptr) = 0;

  /// Traced load/store helpers: emit the reference as allocator traffic and
  /// charge instruction cost.
  uint32_t load(Addr Address) {
    Cost.chargeAlloc(RefCost);
    return Heap.load32(Address, AccessSource::Allocator);
  }
  void store(Addr Address, uint32_t Value) {
    Cost.chargeAlloc(RefCost);
    Heap.store32(Address, Value, AccessSource::Allocator);
  }

  /// Charges pure-arithmetic instruction cost.
  void charge(uint64_t Instructions) { Cost.chargeAlloc(Instructions); }

  /// Called when a shadow observer is attached; subclasses annotate the
  /// metadata regions they initialized with untraced pokes (sentinels,
  /// freelist-head arrays, mapping tables).
  virtual void onShadowAttached() {}

  /// Annotates [Address, Address+Bytes) as allocator metadata.
  void noteMetadata(Addr Address, uint32_t Bytes) {
    if (Shadow)
      Shadow->noteMetadataRange(*this, Address, Bytes);
  }

  /// The attached observer, for forwarding to nested backend allocators.
  HeapStateObserver *shadowObserver() const { return Shadow; }

  /// Called from attachTelemetry (after the base probes are re-fetched);
  /// subclasses fetch their own probes with counterProbe/histogramProbe and
  /// forward the registry to nested backend allocators.
  virtual void onTelemetryAttached() {}

  /// The attached registry (null when telemetry is off) and this
  /// allocator's instrument-name prefix.
  Telemetry *telemetry() const { return Telem; }
  const std::string &telemetryPrefix() const { return TelemPrefix; }

  /// Probe lookup under this allocator's prefix; null when no registry is
  /// attached (or, for histograms, below full level), so probe sites reduce
  /// to one pointer test.
  TelemetryCounter *counterProbe(const char *Name) const {
    return Telem ? Telem->counter(TelemPrefix + "." + Name) : nullptr;
  }
  TelemetryHistogram *histogramProbe(const char *Name) const {
    return Telem ? Telem->histogram(TelemPrefix + "." + Name) : nullptr;
  }

  /// Instruction cost attributed to each traced memory reference (load +
  /// address arithmetic + use).
  static constexpr uint64_t RefCost = 2;

  SimHeap &Heap;
  CostModel &Cost;

private:
  AllocatorStats Stats;
  /// Host-side shadow of live objects (requested sizes by address); used
  /// for stats and to catch invalid/double frees. Not part of the
  /// simulation. One flat-table probe per malloc and two per free
  /// (support/FlatMap.h); a hybrid's backend keeps its own.
  FlatMap<uint32_t> LiveObjects;
  /// HeapCheck observer; null when checking is off.
  HeapStateObserver *Shadow = nullptr;

  /// Telemetry registry and base-wrapper probes; all null when telemetry
  /// is off.
  Telemetry *Telem = nullptr;
  std::string TelemPrefix = "alloc";
  TelemetryCounter *MallocsProbe = nullptr;
  TelemetryCounter *FreesProbe = nullptr;
  TelemetryHistogram *SearchLenHist = nullptr;
  TelemetryHistogram *RequestBytesHist = nullptr;
};

/// Creates an allocator of the given kind over \p Heap. AllocatorKind::Custom
/// cannot be built without a profile; use CustomAlloc directly for that.
std::unique_ptr<Allocator> createAllocator(AllocatorKind Kind, SimHeap &Heap,
                                           CostModel &Cost);

} // namespace allocsim

#endif // ALLOCSIM_ALLOC_ALLOCATOR_H
