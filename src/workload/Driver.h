//===- workload/Driver.h - Event execution against an allocator -*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes an allocation-event stream against a concrete allocator,
/// emitting the application's data references onto the memory bus:
///
///  * Touch events sweep an object's words sequentially from its start
///    (wrapping if the touch is longer than the object), the access pattern
///    of initialization and field traversal. Each lap is one ascending span
///    record (MemAccess.h).
///  * Stack touches zig-zag through a small stack segment, modeling the
///    high-locality non-heap data references that dilute every program's
///    miss rate. Each leg of the zig-zag is one span record, ascending or
///    descending.
///  * Every application reference charges the profile's
///    instructions-per-reference to the cost model, reproducing the paper's
///    instruction totals. The ratio is split exactly into a whole part and a
///    64-bit binary fraction, and each touch is charged once, in O(1): the
///    instruction clock is only read between events.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_WORKLOAD_DRIVER_H
#define ALLOCSIM_WORKLOAD_DRIVER_H

#include "alloc/Allocator.h"
#include "stats/Telemetry.h"
#include "support/FlatMap.h"
#include "trace/AllocEvents.h"

#include <array>

namespace allocsim {

class FaultInjector;
class HeapCheck;

/// Executes allocation events against an allocator.
class Driver {
public:
  /// \p InstrPerRef is the application's instructions-per-data-reference
  /// ratio (Table 2); \p StackWindowBytes bounds the simulated stack
  /// segment's working set. A ratio that is not finite, is negative or
  /// reaches 2^32, or whose fraction needs more than 64 bits, is fatal.
  Driver(Allocator &Alloc, MemoryBus &Bus, CostModel &Cost,
         double InstrPerRef, uint32_t StackWindowBytes = 2048);

  /// Executes one event.
  void execute(const AllocEvent &Event);

  /// Number of live objects currently tracked.
  size_t liveObjects() const { return Objects.size(); }

  /// Application data references emitted so far.
  uint64_t appRefs() const { return AppRefs; }

  /// Looks up the simulated address of a live object (tests/examples).
  Addr addressOf(uint32_t Id) const;

  /// Attaches (or detaches, with nullptr) the heap-integrity checker; its
  /// operation clock is advanced after every malloc/free event.
  void setHeapCheck(HeapCheck *Checker) { Check = Checker; }

  /// Attaches (or detaches, with nullptr) a fault injector; its event hook
  /// runs after every executed event, on the same deterministic event clock
  /// at every check level and job count.
  void setFaultInjector(FaultInjector *Injector) { Inj = Injector; }

  /// Events dropped because they named an object whose malloc failed under
  /// a simulated heap limit (the failed malloc itself, plus every later
  /// touch/free of that id). Always 0 without an OOM fault plan.
  uint64_t droppedEvents() const { return DroppedEvents; }

  /// Attaches (or detaches, with nullptr) a telemetry registry. A
  /// "driver.events" counter tracks executed events; at full level a
  /// per-event-kind PhaseTimer records each operation's instruction cost
  /// (app + alloc, from the simulated clock — deterministic, unlike wall
  /// time) into "driver.malloc_instr" / "driver.free_instr" /
  /// "driver.touch_instr" / "driver.stack_instr", and a
  /// "driver.obj_lifetime" histogram records, at each free, how many events
  /// the object lived (free ordinal minus malloc ordinal — the paper's
  /// object-lifetime distribution on the event clock; leaked objects are
  /// never recorded, which is exactly what TraceLint predicts statically).
  void attachTelemetry(Telemetry *Registry);

private:
  void touchObject(Addr Address, uint32_t ObjectWords, uint32_t Words,
                   AccessKind Kind);
  void touchStack(uint32_t Words, AccessKind Kind);
  /// Charges \p Refs application references: floor(Refs * ratio) plus the
  /// carry of the running fraction, exactly.
  void chargeRefs(uint32_t Refs);

  struct ObjectInfo {
    Addr Address;
    uint32_t Words;
    /// Value of EventOrdinal when the object was malloc'd.
    uint64_t BirthOrdinal;
  };

  Allocator &Alloc;
  MemoryBus &Bus;
  CostModel &Cost;
  /// Instructions per reference = InstrWhole + InstrFrac / 2^64, exactly;
  /// FracDebt is the fraction of an instruction carried so far, in 2^-64
  /// units.
  uint64_t InstrWhole = 0;
  uint64_t InstrFrac = 0;
  uint64_t FracDebt = 0;

  /// Live objects by id (support/FlatMap.h): malloc inserts, touch finds,
  /// free finds and erases. Any uint32_t is an id, and an id may be
  /// malloc'd again after its free.
  FlatMap<ObjectInfo> Objects;
  uint64_t AppRefs = 0;
  /// 1-based ordinal of the event being executed (the object-lifetime
  /// clock).
  uint64_t EventOrdinal = 0;

  /// Optional heap-integrity checker (null when checking is off).
  HeapCheck *Check = nullptr;

  /// Optional fault injector (null unless a corruption plan is active).
  FaultInjector *Inj = nullptr;

  /// Graceful OOM degradation: ids whose malloc returned null. Their later
  /// touches and frees are dropped (a real program would have branched on
  /// the null), while genuinely unknown ids stay fatal stream errors.
  FlatMap<NoValue> FailedIds;
  uint64_t DroppedEvents = 0;

  /// Telemetry probes; null when telemetry is off. OpInstrHists is indexed
  /// by AllocEventKind.
  TelemetryCounter *EventsProbe = nullptr;
  TelemetryHistogram *LifetimeHist = nullptr;
  std::array<TelemetryHistogram *, 4> OpInstrHists{};

  /// Stack zig-zag state.
  uint32_t StackWindowBytes;
  uint32_t StackPos = 0;
  int StackDir = 1;
};

} // namespace allocsim

#endif // ALLOCSIM_WORKLOAD_DRIVER_H
