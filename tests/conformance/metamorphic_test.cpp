//===- tests/conformance/metamorphic_test.cpp - Metamorphic invariants ----===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// Drives the metamorphic invariant suite (conform/Metamorphic.h) at a
// reduced workload scale so the whole property set — jobs invariance,
// allocator-axis split/merge and permutation bit-identity, associativity-
// doubling miss monotonicity, cache-engine agreement with the CacheBank
// oracle, object-id relabeling invariance — runs in seconds. The committed-configuration run (scale 64) is exercised by the
// `allocsim_cli --conform` gate; these tests check that the invariants are
// properties of the simulator, not of one scale or seed.
//
//===----------------------------------------------------------------------===//

#include "conform/Metamorphic.h"

#include "gtest/gtest.h"

#include <sstream>

using namespace allocsim;

namespace {

void expectCleanSuite(const MetamorphicOptions &Options) {
  DiagEngine Diags;
  size_t Checked = runMetamorphicSuite(Options, Diags);
  // All six relations over 2 workloads x 7 allocators: 2 jobs + 15
  // split/merge + 14 permute + 42 assoc-inclusion (28 on the 512-set chain,
  // 14 on the fully associative one) + 28 engine + 7 relabel elementary
  // checks. Any other count means a relation or a cell silently skipped.
  EXPECT_EQ(Checked, 108u);
  if (!Diags.clean()) {
    std::ostringstream OS;
    Diags.print(OS, "metamorphic");
    FAIL() << "metamorphic invariants violated:\n" << OS.str();
  }
}

TEST(MetamorphicSuite, HoldsAtTestScaleSerial) {
  MetamorphicOptions Options;
  Options.Scale = 256;
  Options.Jobs = 1;
  expectCleanSuite(Options);
}

TEST(MetamorphicSuite, HoldsWithParallelWorkers) {
  // The jobs-invariance property compares the serial leg against a wide
  // worker pool; the other properties all run at this job count too.
  MetamorphicOptions Options;
  Options.Scale = 256;
  Options.Jobs = 8;
  expectCleanSuite(Options);
}

TEST(MetamorphicSuite, HoldsAtADifferentSeed) {
  // The invariants are transformation properties, not golden values: any
  // seed must satisfy them.
  MetamorphicOptions Options;
  Options.Scale = 256;
  Options.Seed = 0xDEC0DE;
  Options.Jobs = 1;
  expectCleanSuite(Options);
}

} // namespace
