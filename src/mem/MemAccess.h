//===- mem/MemAccess.h - Memory reference records ---------------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory-reference record that flows from the simulated program and
/// allocator into the locality simulators. One record with Words == 1 is the
/// execution-driven equivalent of one entry of the paper's PIXIE
/// data-reference trace. A record with Words > 1 is a *span*: that many
/// 4-byte words, stepping +4 (ascending) or -4 (descending) from Address, in
/// that order. A span stands for exactly the per-word records it expands to
/// (MemAccess::word); the driver's object and stack sweeps are emitted this
/// way, so sinks can handle a sweep once per cache block or page instead of
/// once per word.
///
/// Each access is also tagged with its *source* so we can attribute misses
/// to the application, the allocator's bookkeeping, or the emulated
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

/// Which way a span's words step from its Address.
enum class SpanDirection : uint8_t { Ascending, Descending };

/// The most words one record carries; MemoryBus::emitSpan splits longer
/// sweeps into several records.
inline constexpr uint32_t MaxSpanWords = UINT16_MAX;

/// One data reference (Words == 1), or a span of Words 4-byte words.
struct MemAccess {
  Addr Address = 0;
  /// Bytes of a single reference; a span's words are 4 bytes each and its
  /// Size is 4.
  uint8_t Size = 4;
  AccessKind Kind = AccessKind::Read;
  AccessSource Source = AccessSource::Application;
  SpanDirection Direction = SpanDirection::Ascending;
  /// References this record stands for; 1 for a single reference.
  uint16_t Words = 1;

  bool isSpan() const { return Words != 1; }

  /// Address of word \p Index (0-based, in stream order) of a span.
  Addr wordAddress(uint32_t Index) const {
    return Direction == SpanDirection::Ascending ? Address + 4 * Index
                                                 : Address - 4 * Index;
  }

  /// Word \p Index of a span as a single reference.
  MemAccess word(uint32_t Index) const {
    return MemAccess{wordAddress(Index), 4, Kind, Source};
  }

  /// Address of the span's last word in stream order.
  Addr lastWordAddress() const { return wordAddress(Words - 1u); }
};

/// Inclusive range of the 2^Shift-byte frames (cache blocks, pages) one
/// single reference touches; a zero-size access touches its first byte. The
/// last byte is computed in 64 bits, so a reference running past the top of
/// the 32-bit space covers the frames beyond 4 GiB instead of wrapping to an
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

/// The frames of a span, for frames of at least 4 bytes (Shift >= 2), where
/// each word lies in one frame: First is the frame of the span's first
/// word, Last that of its last word, and the span visits every frame from
/// First to Last once, in that order (downward for a descending span).
inline FrameRange spanFrames(const MemAccess &Span, uint32_t Shift) {
  return {uint64_t(Span.Address) >> Shift,
          uint64_t(Span.lastWordAddress()) >> Shift};
}

/// Calls \p Visit(uint64_t Frame) once for every 2^Shift-byte frame
/// (Shift >= 2) a span touches, in span order.
template <typename VisitFn>
void forEachSpanFrame(const MemAccess &Span, uint32_t Shift, VisitFn &&Visit) {
  const FrameRange Range = spanFrames(Span, Shift);
  if (Span.Direction == SpanDirection::Ascending)
    for (uint64_t Frame = Range.First; Frame <= Range.Last; ++Frame)
      Visit(Frame);
  else
    for (uint64_t Frame = Range.First + 1; Frame-- != Range.Last;)
      Visit(Frame);
}

/// Words of a span that fall in its first frame, for frames of 2^Shift >= 4
/// bytes. The words of frame First + k (k >= 1, before the last frame) then
/// number 2^Shift / 4 each.
inline uint32_t wordsInFirstFrame(const MemAccess &Span, uint32_t Shift) {
  const uint32_t Mask = (uint32_t(1) << Shift) - 1;
  const uint32_t Offset = Span.Address & Mask;
  const uint32_t Room = Span.Direction == SpanDirection::Ascending
                            ? (Mask + 1 - Offset) / 4
                            : Offset / 4 + 1;
  return Room < Span.Words ? Room : Span.Words;
}

} // namespace allocsim

#endif // ALLOCSIM_MEM_MEMACCESS_H
