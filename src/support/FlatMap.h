//===- support/FlatMap.h - Open-addressing map keyed by uint32_t -*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one table type behind the simulator's per-event bookkeeping: the
/// driver's live objects by id, each allocator's live objects by address,
/// and the shadow heap's live and freed bases. Every one of those tables is
/// looked up once or twice per event, so a node-based std::unordered_map
/// costs a pointer chase and often a host cache miss on each.
///
/// FlatMap stores its entries inline in one array:
///
///  * linear probing over a power-of-two number of slots, each key's home
///    slot taken from the top bits of a Fibonacci (golden-ratio) product, so
///    sequential ids and word-aligned addresses spread evenly;
///  * the table doubles before it would pass half full, so probe runs stay
///    short;
///  * erase shifts the following entries of the run back into the hole
///    (backward-shift deletion) instead of leaving a tombstone, so lookups
///    never degrade as objects come and go.
///
/// Every uint32_t is a valid key, 0 and 0xFFFFFFFF included: a slot carries
/// its own occupied flag. There is no iteration, so nothing a table holds
/// can make an output depend on hash order. FlatMap<NoValue> is a set.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_SUPPORT_FLATMAP_H
#define ALLOCSIM_SUPPORT_FLATMAP_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace allocsim {

/// Value type of a FlatMap used as a set.
struct NoValue {};

/// Open-addressing hash map from uint32_t keys to \p T (see file comment).
template <typename T> class FlatMap {
public:
  /// Slots allocated by the first insert.
  static constexpr size_t MinSlots = 16;

  size_t size() const { return Count; }

  /// Slots in the table: 0 until the first insert, then a power of two of
  /// at least MinSlots and at least twice size().
  size_t slotCount() const { return Slots.size(); }

  /// The slot where a table of \p SlotCount slots (a power of two of at
  /// least 2) starts probing for \p Key: the top log2(SlotCount) bits of
  /// Key * 2^64 / phi.
  static size_t homeSlot(uint32_t Key, size_t SlotCount) {
    return static_cast<size_t>((uint64_t(Key) * 0x9e3779b97f4a7c15ULL) >>
                               (64 - std::countr_zero(SlotCount)));
  }

  /// The value stored under \p Key, or null. The pointer is valid until the
  /// next insert or erase.
  const T *find(uint32_t Key) const {
    const size_t Index = indexOf(Key);
    return Index == NotFound ? nullptr : &Slots[Index].Value;
  }
  bool contains(uint32_t Key) const { return indexOf(Key) != NotFound; }

  /// Stores \p Value under \p Key unless the key is present; returns true
  /// if it inserted.
  bool insert(uint32_t Key, const T &Value = T()) {
    if (2 * (Count + 1) > Slots.size()) {
      // Only a new key may grow the table.
      if (contains(Key))
        return false;
      grow();
    }
    const size_t Mask = Slots.size() - 1;
    for (size_t I = home(Key);; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (!S.Used) {
        S = Slot{Key, true, Value};
        ++Count;
        return true;
      }
      if (S.Key == Key)
        return false;
    }
  }

  /// Removes \p Key; returns true if it was present.
  bool erase(uint32_t Key) {
    size_t Hole = indexOf(Key);
    if (Hole == NotFound)
      return false;
    const size_t Mask = Slots.size() - 1;
    // Walk the rest of the probe run. An entry may move back into the hole
    // only if its home slot is not in the cyclic range (Hole, J]: then the
    // hole still lies on its probe path from home.
    for (size_t J = (Hole + 1) & Mask; Slots[J].Used; J = (J + 1) & Mask) {
      const size_t Home = home(Slots[J].Key);
      if (((J - Home) & Mask) >= ((J - Hole) & Mask)) {
        Slots[Hole] = std::move(Slots[J]);
        Hole = J;
      }
    }
    Slots[Hole].Used = false;
    --Count;
    return true;
  }

private:
  struct Slot {
    uint32_t Key = 0;
    bool Used = false;
    T Value{};
  };

  static constexpr size_t NotFound = SIZE_MAX;

  size_t home(uint32_t Key) const { return homeSlot(Key, Slots.size()); }

  size_t indexOf(uint32_t Key) const {
    if (Count == 0)
      return NotFound;
    const size_t Mask = Slots.size() - 1;
    for (size_t I = home(Key);; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (!S.Used)
        return NotFound;
      if (S.Key == Key)
        return I;
    }
  }

  void grow() {
    const size_t NewSize = Slots.empty() ? MinSlots : 2 * Slots.size();
    std::vector<Slot> Old = std::exchange(Slots, std::vector<Slot>(NewSize));
    const size_t Mask = Slots.size() - 1;
    for (Slot &S : Old) {
      if (!S.Used)
        continue;
      size_t I = home(S.Key);
      while (Slots[I].Used)
        I = (I + 1) & Mask;
      Slots[I] = std::move(S);
    }
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
};

} // namespace allocsim

#endif // ALLOCSIM_SUPPORT_FLATMAP_H
