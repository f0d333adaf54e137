//===- mem/MemAccess.h - Memory reference records ---------------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory-reference record that flows from the simulated program and
/// allocator into the locality simulators. This is the execution-driven
/// equivalent of one entry of the paper's PIXIE data-reference trace, with
/// one addition: each access is tagged with its *source* so we can attribute
/// misses to the application, the allocator's bookkeeping, or the emulated
/// boundary tags (the paper's Table 6 experiment).
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_MEM_MEMACCESS_H
#define ALLOCSIM_MEM_MEMACCESS_H

#include <cstdint>

namespace allocsim {

/// Simulated addresses are 32-bit, matching the paper's MIPS (DECstation)
/// test vehicle.
using Addr = uint32_t;

/// Default base of the simulated heap segment.
inline constexpr Addr HeapBase = 0x1000'0000;

/// Base of the simulated stack/static segment used by synthetic programs for
/// their non-heap data references.
inline constexpr Addr StackBase = 0x0800'0000;

/// Read or write.
enum class AccessKind : uint8_t { Read, Write };

/// Who issued the reference.
enum class AccessSource : uint8_t {
  /// The application program referencing its own (heap or stack) data.
  Application,
  /// The allocator referencing freelists, headers, chunk tables, etc.
  Allocator,
  /// Emulated boundary-tag pollution (Table 6 ablation only).
  TagEmulation,
};

inline constexpr unsigned NumAccessSources = 3;
inline constexpr unsigned NumAccessKinds = 2;

/// Returns a short human-readable name for \p Source.
inline const char *accessSourceName(AccessSource Source) {
  switch (Source) {
  case AccessSource::Application:
    return "app";
  case AccessSource::Allocator:
    return "alloc";
  case AccessSource::TagEmulation:
    return "tag";
  }
  return "?";
}

/// One data reference.
struct MemAccess {
  Addr Address = 0;
  uint8_t Size = 4;
  AccessKind Kind = AccessKind::Read;
  AccessSource Source = AccessSource::Application;
};

/// Inclusive range of the 2^Shift-byte frames (cache blocks, pages) one
/// access touches; a zero-size access touches its first byte. The last byte
/// is computed in 64 bits, so a reference running past the top of the
/// 32-bit space covers the frames beyond 4 GiB instead of wrapping to an
/// empty range.
struct FrameRange {
  uint64_t First;
  uint64_t Last;
};

inline FrameRange frameRange(const MemAccess &Access, uint32_t Shift) {
  const uint64_t Begin = Access.Address;
  const uint64_t End = Begin + (Access.Size == 0 ? 0 : Access.Size - 1);
  return {Begin >> Shift, End >> Shift};
}

} // namespace allocsim

#endif // ALLOCSIM_MEM_MEMACCESS_H
