//===- cache/CacheSim.cpp - Data-cache simulators -------------------------===//

#include "cache/CacheSim.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace allocsim;

namespace {

bool isPowerOfTwo(uint32_t Value) {
  return Value != 0 && (Value & (Value - 1)) == 0;
}

uint32_t log2Exact(uint32_t Value) {
  assert(isPowerOfTwo(Value) && "log2Exact of non-power-of-two");
  return static_cast<uint32_t>(__builtin_ctz(Value));
}

} // namespace

bool CacheConfig::valid() const {
  return isPowerOfTwo(SizeBytes) && isPowerOfTwo(BlockBytes) &&
         isPowerOfTwo(Assoc) && BlockBytes >= 4 && SizeBytes >= BlockBytes &&
         Assoc <= numBlocks();
}

std::string CacheConfig::describe() const {
  // Print sub-1K capacities in bytes instead of a misleading "0K" — this
  // runs on configs that already failed valid(), and also on legal tiny
  // fully-associative ones (e.g. 512B 16-way).
  std::string Result = SizeBytes >= 1024
                           ? std::to_string(SizeBytes / 1024) + "K "
                           : std::to_string(SizeBytes) + "B ";
  Result += Assoc == 1 ? "direct-mapped" : (std::to_string(Assoc) + "-way");
  Result += ", " + std::to_string(BlockBytes) + "B blocks";
  return Result;
}

CacheSim::CacheSim(const CacheConfig &SimConfig) : Config(SimConfig) {
  // Validate before deriving the block shift: log2Exact on a zero or
  // non-power-of-two block size is undefined behavior, and degenerate
  // geometries must reach reportFatalError with a printable describe().
  if (!Config.valid())
    reportFatalError("invalid cache configuration: " + Config.describe());
  BlockShift = log2Exact(Config.BlockBytes);
}

void CacheSim::accessBatch(const MemAccess *Batch, size_t Count) {
  expandSpans(Batch, Count, [this](const MemAccess *Words, size_t N) {
    accessWords(Words, N);
  });
}

void ProbedCache::accessWords(const MemAccess *Batch, size_t Count) {
  const uint32_t SetMask = Config.numSets() - 1;
  // Access counts by source in registers, as in DirectMappedCache.
  uint64_t Accesses = 0, AppAccesses = 0, AllocAccesses = 0, Misses = 0;
  uint64_t MissBySource[NumAccessSources] = {};
  for (size_t I = 0; I != Count; ++I) {
    const MemAccess &Acc = Batch[I];
    const unsigned Source = static_cast<unsigned>(Acc.Source);
    const FrameRange Frames = frameRange(Acc, BlockShift);
    const uint64_t Touched = Frames.Last - Frames.First + 1;
    Accesses += Touched;
    AppAccesses += Acc.Source == AccessSource::Application ? Touched : 0;
    AllocAccesses += Acc.Source == AccessSource::Allocator ? Touched : 0;
    for (uint64_t Frame = Frames.First; Frame <= Frames.Last; ++Frame) {
      if (probe(Frame))
        continue;
      ++Misses;
      ++MissBySource[Source];
      if (!SetMisses.empty())
        ++SetMisses[static_cast<uint32_t>(Frame) & SetMask];
    }
  }
  const uint64_t AccBySource[NumAccessSources] = {
      AppAccesses, AllocAccesses, Accesses - AppAccesses - AllocAccesses};
  foldBatchStats(Accesses, Misses, AccBySource, MissBySource);
}

void CacheSim::foldBatchStats(uint64_t Accesses, uint64_t Misses,
                              const uint64_t AccBySource[NumAccessSources],
                              const uint64_t MissBySource[NumAccessSources]) {
  Stats.Accesses += Accesses;
  Stats.Misses += Misses;
  for (unsigned S = 0; S != NumAccessSources; ++S) {
    Stats.AccessesBySource[S] += AccBySource[S];
    Stats.MissesBySource[S] += MissBySource[S];
  }
}

DirectMappedCache::DirectMappedCache(const CacheConfig &SimConfig)
    : CacheSim(SimConfig), IndexMask(SimConfig.numSets() - 1),
      Tags(SimConfig.numSets(), 0) {
  assert(Config.Assoc == 1 && "direct-mapped cache requires Assoc == 1");
}

void DirectMappedCache::reset() {
  std::fill(Tags.begin(), Tags.end(), 0);
  std::fill(SetMisses.begin(), SetMisses.end(), 0);
  Stats = CacheStats();
}

void DirectMappedCache::accessWords(const MemAccess *Batch, size_t Count) {
  // Hoist everything loop-invariant: the tag array, index mask and block
  // shift live in registers for the whole batch, and statistics accumulate
  // into locals folded back once. Same frame split as ProbedCache.
  uint64_t *TagArray = Tags.data();
  const uint32_t Mask = IndexMask;
  const uint32_t Shift = BlockShift;
  uint64_t *SetMissArray = SetMisses.empty() ? nullptr : SetMisses.data();
  // Access counts by source stay in registers (a counter array indexed by
  // source would chain every record through memory): the application's
  // and the allocator's are counted, the tag emulation's is the rest.
  uint64_t Accesses = 0, AppAccesses = 0, AllocAccesses = 0, Misses = 0;
  uint64_t MissBySource[NumAccessSources] = {};
  auto Probe = [&](uint64_t Frame, unsigned Source) {
    const uint64_t TagPlusOne = Frame + 1;
    const uint32_t Set = static_cast<uint32_t>(Frame) & Mask;
    uint64_t &Slot = TagArray[Set];
    if (Slot == TagPlusOne)
      return;
    Slot = TagPlusOne;
    ++Misses;
    ++MissBySource[Source];
    if (SetMissArray)
      ++SetMissArray[Set];
  };
  for (size_t I = 0; I != Count; ++I) {
    const MemAccess &Acc = Batch[I];
    const unsigned Source = static_cast<unsigned>(Acc.Source);
    const FrameRange Frames = frameRange(Acc, Shift);
    const uint64_t Touched = Frames.Last - Frames.First + 1;
    Accesses += Touched;
    AppAccesses += Acc.Source == AccessSource::Application ? Touched : 0;
    AllocAccesses += Acc.Source == AccessSource::Allocator ? Touched : 0;
    // Most references touch one frame; giving them their own copy of the
    // probe keeps the frame loop off the common path.
    if (Touched == 1) [[likely]] {
      Probe(Frames.First, Source);
      continue;
    }
    for (uint64_t Frame = Frames.First; Frame <= Frames.Last; ++Frame)
      Probe(Frame, Source);
  }
  const uint64_t AccBySource[NumAccessSources] = {
      AppAccesses, AllocAccesses, Accesses - AppAccesses - AllocAccesses};
  foldBatchStats(Accesses, Misses, AccBySource, MissBySource);
}

SetAssocCache::SetAssocCache(const CacheConfig &SimConfig)
    : ProbedCache(SimConfig), NumSets(SimConfig.numSets()),
      Ways(static_cast<size_t>(SimConfig.numSets()) * SimConfig.Assoc, 0) {}

void SetAssocCache::reset() {
  std::fill(Ways.begin(), Ways.end(), 0);
  std::fill(SetMisses.begin(), SetMisses.end(), 0);
  Stats = CacheStats();
}

bool SetAssocCache::probe(uint64_t BlockFrame) {
  // NumSets is a power of two (CacheConfig::valid), so the mask is the
  // modulus without a division.
  uint32_t Set = static_cast<uint32_t>(BlockFrame) & (NumSets - 1);
  uint64_t TagPlusOne = BlockFrame + 1;
  uint64_t *SetWays = &Ways[static_cast<size_t>(Set) * Config.Assoc];
  for (uint32_t Way = 0; Way != Config.Assoc; ++Way) {
    if (SetWays[Way] != TagPlusOne)
      continue;
    // Hit: move to MRU position.
    for (uint32_t J = Way; J != 0; --J)
      SetWays[J] = SetWays[J - 1];
    SetWays[0] = TagPlusOne;
    return true;
  }
  // Miss: evict LRU (last way), shift, insert at MRU.
  for (uint32_t J = Config.Assoc - 1; J != 0; --J)
    SetWays[J] = SetWays[J - 1];
  SetWays[0] = TagPlusOne;
  return false;
}

VictimCache::VictimCache(const CacheConfig &SimConfig,
                         uint32_t VictimEntries)
    : ProbedCache(SimConfig), IndexMask(SimConfig.numSets() - 1),
      Tags(SimConfig.numSets(), 0), Victims(VictimEntries, 0) {
  if (SimConfig.Assoc != 1)
    reportFatalError("victim cache requires a direct-mapped main array");
  if (VictimEntries == 0)
    reportFatalError("victim cache needs at least one buffer entry");
}

void VictimCache::reset() {
  std::fill(Tags.begin(), Tags.end(), 0);
  std::fill(Victims.begin(), Victims.end(), 0);
  std::fill(SetMisses.begin(), SetMisses.end(), 0);
  Stats = CacheStats();
  VictimHits = 0;
}

bool VictimCache::probe(uint64_t BlockFrame) {
  uint32_t Set = static_cast<uint32_t>(BlockFrame) & IndexMask;
  uint64_t TagPlusOne = BlockFrame + 1;
  if (Tags[Set] == TagPlusOne)
    return true;

  // Main-array miss: search the victim buffer.
  for (size_t I = 0; I != Victims.size(); ++I) {
    if (Victims[I] != TagPlusOne)
      continue;
    // Swap: the requested block returns to the main array, the displaced
    // main block takes its buffer slot (promoted to most recent).
    uint64_t Displaced = Tags[Set];
    Tags[Set] = TagPlusOne;
    for (size_t J = I; J != 0; --J)
      Victims[J] = Victims[J - 1];
    Victims[0] = Displaced;
    ++VictimHits;
    return true;
  }

  // Full miss: displaced main block enters the buffer (LRU evict).
  uint64_t Displaced = Tags[Set];
  Tags[Set] = TagPlusOne;
  if (Displaced != 0) {
    for (size_t J = Victims.size() - 1; J != 0; --J)
      Victims[J] = Victims[J - 1];
    Victims[0] = Displaced;
  }
  return false;
}

size_t CacheBank::addCache(const CacheConfig &SimConfig) {
  for (size_t I = 0; I != Caches.size(); ++I)
    if (Caches[I]->config() == SimConfig)
      reportFatalError("duplicate cache configuration (already at index " +
                       std::to_string(I) +
                       "): " + SimConfig.describe() +
                       " — a duplicate would double-count in sweep output");
  if (SimConfig.Assoc == 1)
    Caches.push_back(std::make_unique<DirectMappedCache>(SimConfig));
  else
    Caches.push_back(std::make_unique<SetAssocCache>(SimConfig));
  return Caches.size() - 1;
}

void CacheBank::accessBatch(const MemAccess *Batch, size_t Count) {
  // Expand once, then run every cache's loop over each chunk of words.
  expandSpans(Batch, Count, [this](const MemAccess *Words, size_t N) {
    for (auto &Cache : Caches)
      Cache->accessWords(Words, N);
  });
}

void CacheBank::resetAll() {
  for (auto &Cache : Caches)
    Cache->reset();
}

std::vector<CacheConfig> allocsim::paperCacheSweep() {
  std::vector<CacheConfig> Configs;
  for (uint32_t Kb = 16; Kb <= 256; Kb *= 2)
    Configs.push_back(CacheConfig{Kb * 1024, 32, 1});
  return Configs;
}

std::vector<CacheConfig> allocsim::assocCacheSweep() {
  std::vector<CacheConfig> Configs;
  for (uint32_t Assoc = 1; Assoc <= 16; Assoc *= 2)
    Configs.push_back(CacheConfig{16 * 1024 * Assoc, 32, Assoc});
  return Configs;
}
