//===- workload/Driver.cpp - Event execution against an allocator ---------===//

#include "workload/Driver.h"

#include "check/HeapCheck.h"
#include "inject/FaultInjector.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace allocsim;

Driver::Driver(Allocator &DriverAlloc, MemoryBus &DriverBus,
               CostModel &DriverCost, double AppInstrPerRef,
               uint32_t StackWindow)
    : Alloc(DriverAlloc), Bus(DriverBus), Cost(DriverCost),
      StackWindowBytes(StackWindow) {
  assert(StackWindowBytes >= 64 && (StackWindowBytes & 3) == 0 &&
         "degenerate stack window");
  if (!std::isfinite(AppInstrPerRef) || AppInstrPerRef < 0 ||
      AppInstrPerRef >= 0x1p32)
    reportFatalError("instructions per reference must be finite, "
                     "non-negative and below 2^32");
  // Both steps are exact: the fraction keeps the ratio's low bits, and
  // scaling by 2^64 only moves the exponent.
  const double Whole = std::floor(AppInstrPerRef);
  const double Frac = std::ldexp(AppInstrPerRef - Whole, 64);
  if (Frac != std::floor(Frac))
    reportFatalError("instructions per reference: fraction needs more "
                     "than 64 bits");
  InstrWhole = static_cast<uint64_t>(Whole);
  InstrFrac = static_cast<uint64_t>(Frac);
}

void Driver::chargeRefs(uint32_t Refs) {
  using Uint128 = unsigned __int128;
  AppRefs += Refs;
  const Uint128 Frac = Uint128(InstrFrac) * Refs + FracDebt;
  FracDebt = static_cast<uint64_t>(Frac);
  Cost.chargeApp(InstrWhole * Refs + static_cast<uint64_t>(Frac >> 64));
}

void Driver::attachTelemetry(Telemetry *Registry) {
  EventsProbe = Registry ? Registry->counter("driver.events") : nullptr;
  LifetimeHist = Registry ? Registry->histogram("driver.obj_lifetime") : nullptr;
  OpInstrHists = {};
  if (Registry) {
    OpInstrHists[static_cast<unsigned>(AllocEventKind::Malloc)] =
        Registry->histogram("driver.malloc_instr");
    OpInstrHists[static_cast<unsigned>(AllocEventKind::Free)] =
        Registry->histogram("driver.free_instr");
    OpInstrHists[static_cast<unsigned>(AllocEventKind::Touch)] =
        Registry->histogram("driver.touch_instr");
    OpInstrHists[static_cast<unsigned>(AllocEventKind::StackTouch)] =
        Registry->histogram("driver.stack_instr");
  }
}

void Driver::execute(const AllocEvent &Event) {
  ++EventOrdinal;
  if (EventsProbe)
    EventsProbe->add();
  // Times the whole operation (allocator work + emitted touches) on the
  // simulated instruction clock; free when the histogram is null.
  PhaseTimer Timer(OpInstrHists[static_cast<unsigned>(Event.Kind)],
                   [this] { return Cost.totalInstructions(); });
  switch (Event.Kind) {
  case AllocEventKind::Malloc: {
    Addr Address = Alloc.malloc(Event.Amount);
    if (Address == 0) {
      // Simulated heap exhaustion: remember the id so the stream's later
      // touches/frees of this object degrade to no-ops instead of faulting.
      assert(!Objects.contains(Event.Id) &&
             "duplicate object id in event stream");
      FailedIds.insert(Event.Id);
      ++DroppedEvents;
    } else {
      [[maybe_unused]] bool Inserted = Objects.insert(
          Event.Id,
          ObjectInfo{Address, (Event.Amount + 3) / 4, EventOrdinal});
      assert(Inserted && "duplicate object id in event stream");
    }
    if (Check) {
      // Allocator-event boundary: deliver everything this malloc emitted
      // before the checker's operation clock advances (HeapCheck flushes
      // again internally, but the contract lives at the emission site).
      Bus.flush();
      Check->onOperation();
    }
    break;
  }
  case AllocEventKind::Free: {
    const ObjectInfo *Object = Objects.find(Event.Id);
    if (!Object) {
      if (FailedIds.erase(Event.Id)) {
        ++DroppedEvents;
        break;
      }
      reportFatalError("event stream frees unknown object");
    }
    if (LifetimeHist)
      LifetimeHist->record(EventOrdinal - Object->BirthOrdinal);
    Alloc.free(Object->Address);
    Objects.erase(Event.Id);
    if (Check) {
      Bus.flush();
      Check->onOperation();
    }
    break;
  }
  case AllocEventKind::Touch: {
    const ObjectInfo *Object = Objects.find(Event.Id);
    if (!Object) {
      if (FailedIds.contains(Event.Id)) {
        ++DroppedEvents;
        break;
      }
      reportFatalError("event stream touches unknown object");
    }
    touchObject(Object->Address, Object->Words, Event.Amount, Event.Access);
    break;
  }
  case AllocEventKind::StackTouch:
    touchStack(Event.Amount, Event.Access);
    break;
  }
  if (Inj)
    Inj->onEvent(EventOrdinal, Check);
}

Addr Driver::addressOf(uint32_t Id) const {
  const ObjectInfo *Object = Objects.find(Id);
  if (!Object)
    reportFatalError("addressOf: unknown object id");
  return Object->Address;
}

void Driver::touchObject(Addr Address, uint32_t ObjectWords, uint32_t Words,
                         AccessKind Kind) {
  assert(ObjectWords > 0 && "touch of empty object");
  // Sequential field sweep from the object's start, wrapping for touches
  // longer than the object: one ascending span per lap.
  for (uint32_t Left = Words; Left != 0;) {
    const uint32_t Lap = std::min(Left, ObjectWords);
    Bus.emitSpan(Address, Lap, SpanDirection::Ascending, Kind,
                 AccessSource::Application);
    Left -= Lap;
  }
  chargeRefs(Words);
}

void Driver::touchStack(uint32_t Words, AccessKind Kind) {
  // Zig-zag sweep, the push/pop address pattern of call frames: one span
  // per leg. A leg runs from StackPos to the window's end in its direction,
  // and the word after an end steps back the other way.
  const uint32_t TopPos = StackWindowBytes - 4;
  for (uint32_t Left = Words; Left != 0;) {
    const bool Up = StackPos != TopPos && (StackPos == 0 || StackDir > 0);
    const uint32_t LegWords = (Up ? TopPos - StackPos : StackPos) / 4 + 1;
    const uint32_t Run = std::min(Left, LegWords);
    Bus.emitSpan(StackBase + StackPos, Run,
                 Up ? SpanDirection::Ascending : SpanDirection::Descending,
                 Kind, AccessSource::Application);
    Left -= Run;
    const uint32_t Reach = 4 * (Run - 1);
    const uint32_t Last = Up ? StackPos + Reach : StackPos - Reach;
    // The next word steps on along the leg, or back from its end.
    StackDir = (Up == (Run != LegWords)) ? 1 : -1;
    StackPos = StackDir > 0 ? Last + 4 : Last - 4;
  }
  chargeRefs(Words);
}
