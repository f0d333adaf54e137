//===- cache/StackSim.cpp - One-pass inclusion cache engine ---------------===//

#include "cache/StackSim.h"

#include "support/Error.h"

#include <algorithm>
#include <numeric>

using namespace allocsim;

OnePassKernel
allocsim::onePassKernelFor(const std::vector<CacheConfig> &Family) {
  if (Family.empty())
    return OnePassKernel::None;
  const CacheConfig &First = Family.front();
  bool DirectMapped = true, DistinctSets = true;
  bool SharedSets = true, Distinct = true;
  for (size_t I = 0; I != Family.size(); ++I) {
    const CacheConfig &Config = Family[I];
    if (!Config.valid() || Config.BlockBytes != First.BlockBytes)
      return OnePassKernel::None;
    DirectMapped = DirectMapped && Config.Assoc == 1;
    SharedSets = SharedSets && Config.numSets() == First.numSets();
    for (size_t J = 0; J != I; ++J) {
      DistinctSets = DistinctSets && Family[J].numSets() != Config.numSets();
      Distinct = Distinct && !(Family[J] == Config);
    }
  }
  if (DirectMapped && DistinctSets)
    return OnePassKernel::Ladder;
  if (SharedSets && Distinct && Family.size() >= 2)
    return OnePassKernel::Stack;
  return OnePassKernel::None;
}

StackSim::StackSim(const std::vector<CacheConfig> &SimFamily)
    : Family(SimFamily), Kernel(onePassKernelFor(SimFamily)) {
  if (Kernel == OnePassKernel::None) {
    std::string Members;
    for (const CacheConfig &Config : Family)
      Members += (Members.empty() ? "" : "; ") + Config.describe();
    reportFatalError("no one-pass kernel for cache family {" + Members +
                     "}: need direct-mapped members with distinct set "
                     "counts, or two or more LRU members sharing one set "
                     "count, all valid with one block size");
  }

  BlockShift = static_cast<uint32_t>(__builtin_ctz(Family.front().BlockBytes));
  Threshold.resize(Family.size());
  if (Kernel == OnePassKernel::Ladder) {
    std::vector<uint32_t> Order(Family.size());
    std::iota(Order.begin(), Order.end(), 0u);
    std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
      return Family[A].numSets() < Family[B].numSets();
    });
    size_t TotalSets = 0;
    for (const CacheConfig &Config : Family)
      TotalSets += Config.numSets();
    Tags.assign(TotalSets, 0);
    uint32_t *Next = Tags.data();
    for (uint32_t Member : Order) {
      const uint32_t Sets = Family[Member].numSets();
      Rungs.push_back({Next, Sets - 1, Member});
      // The member at rung r misses every frame first hitting above r.
      Threshold[Member] = static_cast<uint32_t>(Rungs.size());
      Next += Sets;
    }
    Levels = static_cast<uint32_t>(Rungs.size());
  } else {
    SetMask = Family.front().numSets() - 1;
    for (size_t I = 0; I != Family.size(); ++I) {
      Threshold[I] = Family[I].Assoc;
      Levels = std::max(Levels, Family[I].Assoc);
    }
    // Stacks are capped at the largest associativity, which is exact: an
    // entry deeper than that misses in every member, like a cold frame.
    Tags.assign(static_cast<size_t>(SetMask + 1) * Levels, 0);
  }
  Hist.assign(static_cast<size_t>(Levels) * NumAccessSources, 0);
  SetMisses.resize(Family.size());
}

CacheStats StackSim::statsFor(size_t Index) const {
  CacheStats Stats;
  for (unsigned S = 0; S != NumAccessSources; ++S) {
    uint64_t Misses = 0;
    for (uint32_t Level = Threshold[Index]; Level <= Levels; ++Level)
      Misses += Hist[(Level - 1) * NumAccessSources + S];
    Stats.AccessesBySource[S] = FramesBySource[S];
    Stats.MissesBySource[S] = Misses;
    Stats.Accesses += FramesBySource[S];
    Stats.Misses += Misses;
  }
  return Stats;
}

void StackSim::accessBatch(const MemAccess *Batch, size_t Count) {
  if (Kernel == OnePassKernel::Ladder)
    ladderBatch(Batch, Count);
  else
    stackBatch(Batch, Count);
}

void StackSim::ladderBatch(const MemAccess *Batch, size_t Count) {
  const Rung *RungData = Rungs.data();
  const uint32_t NumRungs = Levels;
  const uint32_t Shift = BlockShift;
  const bool Profile = ProfileEnabled;
  uint64_t *HistData = Hist.data();
  uint64_t Frames[NumAccessSources] = {};
  // Rung 0 answers most frames, so its tags and mask stay in registers.
  uint32_t *const SmallTags = RungData[0].Tags;
  const uint32_t SmallMask = RungData[0].Mask;
  // Smallest rung upward: a miss installs the frame, exactly as that rung's
  // DirectMappedCache would; the first hit ends the walk, since every
  // larger rung holds the frame too and a hit changes nothing.
  auto Probe = [&](uint64_t Frame, unsigned Source) {
    const uint32_t Block = static_cast<uint32_t>(Frame);
    const uint32_t TagPlusOne = Block + 1;
    uint32_t &SmallSlot = SmallTags[Block & SmallMask];
    if (SmallSlot == TagPlusOne) [[likely]]
      return;
    SmallSlot = TagPlusOne;
    if (Profile)
      ++SetMisses[RungData[0].Member][Block & SmallMask];
    uint32_t Level = 1;
    for (; Level != NumRungs; ++Level) {
      const Rung &R = RungData[Level];
      const uint32_t Set = Block & R.Mask;
      if (R.Tags[Set] == TagPlusOne)
        break;
      R.Tags[Set] = TagPlusOne;
      if (Profile)
        ++SetMisses[R.Member][Set];
    }
    ++HistData[(Level - 1) * NumAccessSources + Source];
  };
  for (size_t I = 0; I != Count; ++I) {
    const MemAccess &Acc = Batch[I];
    const unsigned Source = static_cast<unsigned>(Acc.Source);
    if (Acc.isSpan()) {
      // Each block once, in span order; the block's other words follow its
      // probe directly, so they hit rung 0 (level 0, no member misses).
      Frames[Source] += Acc.Words;
      forEachSpanFrame(Acc, Shift,
                       [&](uint64_t Frame) { Probe(Frame, Source); });
      continue;
    }
    const FrameRange Range = frameRange(Acc, Shift);
    Frames[Source] += Range.Last - Range.First + 1;
    // Most references touch one frame; giving them their own copy of the
    // probe keeps the frame loop off the common path.
    if (Range.First == Range.Last) [[likely]] {
      Probe(Range.First, Source);
      continue;
    }
    for (uint64_t Frame = Range.First; Frame <= Range.Last; ++Frame)
      Probe(Frame, Source);
  }
  for (unsigned S = 0; S != NumAccessSources; ++S)
    FramesBySource[S] += Frames[S];
}

void StackSim::stackBatch(const MemAccess *Batch, size_t Count) {
  uint32_t *TagData = Tags.data();
  const uint32_t Mask = SetMask;
  const uint32_t Depths = Levels;
  const uint32_t Shift = BlockShift;
  const bool Profile = ProfileEnabled;
  uint64_t *HistData = Hist.data();
  uint64_t Frames[NumAccessSources] = {};
  auto Probe = [&](uint64_t Frame, unsigned Source) {
    const uint32_t Block = static_cast<uint32_t>(Frame);
    const uint32_t Set = Block & Mask;
    const uint32_t TagPlusOne = Block + 1;
    uint32_t *Stack = TagData + static_cast<size_t>(Set) * Depths;
    // MRU fast path: a depth-0 hit moves nothing and misses nowhere.
    uint32_t Prev = Stack[0];
    if (Prev == TagPlusOne)
      return;
    // Search and reposition in one pass, sliding each entry down while
    // scanning: a hit at depth D has shifted [0..D), a miss the whole
    // stack.
    Stack[0] = TagPlusOne;
    uint32_t Depth = Depths;
    for (uint32_t D = 1; D != Depths; ++D) {
      const uint32_t Cur = Stack[D];
      Stack[D] = Prev;
      if (Cur == TagPlusOne) {
        Depth = D;
        break;
      }
      Prev = Cur;
    }
    ++HistData[(Depth - 1) * NumAccessSources + Source];
    if (Profile)
      for (size_t M = 0; M != Family.size(); ++M)
        if (Threshold[M] <= Depth)
          ++SetMisses[M][Set];
  };
  for (size_t I = 0; I != Count; ++I) {
    const MemAccess &Acc = Batch[I];
    const unsigned Source = static_cast<unsigned>(Acc.Source);
    if (Acc.isSpan()) {
      // Each block once, in span order; its other words then sit at depth
      // 0 (MRU) of their set.
      Frames[Source] += Acc.Words;
      forEachSpanFrame(Acc, Shift,
                       [&](uint64_t Frame) { Probe(Frame, Source); });
      continue;
    }
    const FrameRange Range = frameRange(Acc, Shift);
    Frames[Source] += Range.Last - Range.First + 1;
    for (uint64_t Frame = Range.First; Frame <= Range.Last; ++Frame)
      Probe(Frame, Source);
  }
  for (unsigned S = 0; S != NumAccessSources; ++S)
    FramesBySource[S] += Frames[S];
}

void StackSim::reset() {
  std::fill(Tags.begin(), Tags.end(), 0);
  std::fill(Hist.begin(), Hist.end(), 0);
  FramesBySource.fill(0);
  for (auto &Profile : SetMisses)
    std::fill(Profile.begin(), Profile.end(), 0);
}

void StackSim::enableSetProfile() {
  ProfileEnabled = true;
  for (size_t I = 0; I != Family.size(); ++I)
    SetMisses[I].assign(Family[I].numSets(), 0);
}

CacheSweep::CacheSweep(const std::vector<CacheConfig> &SweepFamily)
    : Family(SweepFamily) {
  if (onePassKernelFor(Family) != OnePassKernel::None)
    OnePass = std::make_unique<StackSim>(Family);
  else
    for (const CacheConfig &Config : Family)
      Bank.addCache(Config);
}

CacheStats CacheSweep::statsFor(size_t Index) const {
  return OnePass ? OnePass->statsFor(Index) : Bank.cache(Index).stats();
}

void CacheSweep::accessBatch(const MemAccess *Batch, size_t Count) {
  if (OnePass)
    OnePass->accessBatch(Batch, Count);
  else
    Bank.accessBatch(Batch, Count);
}

void CacheSweep::enableSetProfile() {
  if (OnePass)
    OnePass->enableSetProfile();
  for (size_t I = 0; I != Bank.size(); ++I)
    Bank.cache(I).enableSetProfile();
}

const std::vector<uint64_t> &
CacheSweep::setMissProfile(size_t Index) const {
  return OnePass ? OnePass->setMissProfile(Index)
                 : Bank.cache(Index).setMissProfile();
}
