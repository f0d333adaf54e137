//===- trace/RefTrace.cpp - Reference trace I/O ---------------------------===//

#include "trace/RefTrace.h"

#include "support/Error.h"

#include <cstdio>
#include <istream>
#include <ostream>
#include <string>

using namespace allocsim;

namespace {

constexpr char BinaryMagic[4] = {'A', 'S', 'T', '1'};

constexpr char kindChar(AccessKind Kind) {
  return Kind == AccessKind::Read ? 'R' : 'W';
}

constexpr size_t BinaryRecordBytes = 6;

void encodeBinaryRecord(const MemAccess &Access, unsigned char *Record) {
  Record[0] = static_cast<unsigned char>(Access.Address);
  Record[1] = static_cast<unsigned char>(Access.Address >> 8);
  Record[2] = static_cast<unsigned char>(Access.Address >> 16);
  Record[3] = static_cast<unsigned char>(Access.Address >> 24);
  Record[4] = Access.Size;
  Record[5] = static_cast<unsigned char>(
      (static_cast<unsigned>(Access.Kind) << 4) |
      static_cast<unsigned>(Access.Source));
}

} // namespace

BinaryTraceWriter::BinaryTraceWriter(std::ostream &Stream) : OS(Stream) {
  OS.write(BinaryMagic, sizeof(BinaryMagic));
}

void BinaryTraceWriter::accessBatch(const MemAccess *Batch, size_t N) {
  // expandSpans hands over at most AccessBatch::MaxCapacity records a call.
  expandSpans(Batch, N, [this](const MemAccess *Words, size_t Chunk) {
    unsigned char Buffer[AccessBatch::MaxCapacity * BinaryRecordBytes];
    for (size_t I = 0; I != Chunk; ++I)
      encodeBinaryRecord(Words[I], Buffer + I * BinaryRecordBytes);
    OS.write(reinterpret_cast<const char *>(Buffer),
             static_cast<std::streamsize>(Chunk * BinaryRecordBytes));
    Count += Chunk;
  });
}

BinaryTraceReader::BinaryTraceReader(std::istream &Stream) : IS(Stream) {
  char Magic[4];
  IS.read(Magic, sizeof(Magic));
  if (!IS || Magic[0] != BinaryMagic[0] || Magic[1] != BinaryMagic[1] ||
      Magic[2] != BinaryMagic[2] || Magic[3] != BinaryMagic[3])
    reportFatalError("binary trace: bad or missing magic");
}

bool BinaryTraceReader::next(MemAccess &Access) {
  unsigned char Record[6];
  IS.read(reinterpret_cast<char *>(Record), sizeof(Record));
  if (!IS) {
    if (IS.gcount() != 0)
      reportFatalError("binary trace: truncated record");
    return false;
  }
  Access = MemAccess{};
  Access.Address = static_cast<Addr>(Record[0]) |
                   (static_cast<Addr>(Record[1]) << 8) |
                   (static_cast<Addr>(Record[2]) << 16) |
                   (static_cast<Addr>(Record[3]) << 24);
  Access.Size = Record[4];
  unsigned KindBits = Record[5] >> 4;
  unsigned SourceBits = Record[5] & 0xF;
  if (KindBits >= NumAccessKinds || SourceBits >= NumAccessSources)
    reportFatalError("binary trace: corrupt kind/source byte");
  Access.Kind = static_cast<AccessKind>(KindBits);
  Access.Source = static_cast<AccessSource>(SourceBits);
  return true;
}

void TextTraceWriter::accessBatch(const MemAccess *Batch, size_t N) {
  expandSpans(Batch, N, [this](const MemAccess *Words, size_t Count) {
    std::string Buffer;
    Buffer.reserve(Count * 20);
    char Line[48];
    for (size_t I = 0; I != Count; ++I) {
      const MemAccess &Access = Words[I];
      const int Length =
          std::snprintf(Line, sizeof(Line), "%c %08x %u %s\n",
                        kindChar(Access.Kind), Access.Address, Access.Size,
                        accessSourceName(Access.Source));
      Buffer.append(Line, static_cast<size_t>(Length));
    }
    OS << Buffer;
  });
}

bool TextTraceReader::next(MemAccess &Access) {
  std::string Kind, SourceName;
  uint64_t Address;
  // Signed, so a negative size reads as negative instead of wrapping.
  int64_t Size;
  if (!(IS >> Kind))
    return false;
  if (!(IS >> std::hex >> Address >> std::dec >> Size >> SourceName))
    reportFatalError("text trace: truncated record");
  Access = MemAccess{};
  if (Kind == "R")
    Access.Kind = AccessKind::Read;
  else if (Kind == "W")
    Access.Kind = AccessKind::Write;
  else
    reportFatalError("text trace: bad access kind '" + Kind + "'");
  if (Address > 0xFFFFFFFFu)
    reportFatalError("text trace: address above 0xffffffff");
  if (Size < 0 || Size > 255)
    reportFatalError("text trace: access size " + std::to_string(Size) +
                     " outside 0..255");
  Access.Address = static_cast<Addr>(Address);
  Access.Size = static_cast<uint8_t>(Size);
  if (SourceName == "app")
    Access.Source = AccessSource::Application;
  else if (SourceName == "alloc")
    Access.Source = AccessSource::Allocator;
  else if (SourceName == "tag")
    Access.Source = AccessSource::TagEmulation;
  else
    reportFatalError("text trace: bad access source '" + SourceName + "'");
  return true;
}
