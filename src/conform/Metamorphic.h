//===- conform/Metamorphic.h - Metamorphic invariant suite ------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Metamorphic testing for the simulator: instead of pinning outputs to
/// known values, each property transforms an experiment in a way that
/// provably must not change (or can only improve) the measurement, runs
/// both versions, and diagnoses any divergence. These catch whole classes
/// of bugs golden files cannot — a scheduler that leaks completion order
/// into results, a cache that violates LRU inclusion, an allocator whose
/// placement depends on object-id *values* rather than request order.
///
/// Properties (each reported under its own stable rule id):
///
///  * conform-meta-jobs: the full golden serialization and the merged
///    telemetry of a matrix are bit-identical at --jobs=1 and --jobs=N.
///  * conform-meta-split: splitting a matrix along the allocator axis into
///    two sub-matrices and merging yields every cell bit-identical to the
///    unsplit run, including the folded telemetry (allocator-axis splits
///    leave per-cell seeds untouched; workload-axis splits would not).
///  * conform-meta-permute: permuting the allocator axis permutes the cells
///    and changes nothing else.
///  * conform-meta-assoc: growing a cache from (S sets, k-way) to (S sets,
///    2k-way) under LRU never increases misses on any trace (the inclusion
///    property, Mattson et al. 1970) — asserted with sets held fixed, i.e.
///    size and associativity doubled together; checked both on a 512-set
///    chain and on a fully-associative one (a single set, Assoc ==
///    numBlocks), where inclusion is the pure stack property.
///  * conform-meta-engine: the cache engine chosen from the family's shape
///    (the one-pass ladder for the paper's direct-mapped sweep, the stack
///    kernel for a shared-set-count LRU family) reports, cell by cell,
///    exactly the per-member and per-source counts of a CacheBank (one
///    CacheSim per member) observing the same run's reference stream.
///
/// Each distinct matrix is simulated once: the base matrix is also the
/// jobs property's serial leg, and the 512-set assoc chain is also the
/// engine property's associativity family.
///  * conform-meta-relabel: renaming every object id through a bijection
///    leaves a scripted run's reference stream and miss counts unchanged —
///    allocation is driven by request order and sizes, never by the names.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_CONFORM_METAMORPHIC_H
#define ALLOCSIM_CONFORM_METAMORPHIC_H

#include "support/Diag.h"

#include <cstdint>

namespace allocsim {

/// Knobs for the metamorphic suite. The defaults match the committed
/// conformance configuration; tests shrink Scale to run in milliseconds.
struct MetamorphicOptions {
  /// Workload scale divisor handed to EngineOptions.
  uint32_t Scale = 64;
  /// Base engine seed.
  uint64_t Seed = 1592932958ULL;
  /// Worker count for every matrix run but the jobs property's two legs:
  /// its serial leg always runs at 1 worker, its parallel leg at this count
  /// when it is above 1 and at 8 otherwise.
  unsigned Jobs = 1;
};

/// Runs every metamorphic property across all five paper allocators,
/// reporting violations into \p Diags (rules conform-meta-*). Returns the
/// number of elementary equalities/inequalities checked.
size_t runMetamorphicSuite(const MetamorphicOptions &Options,
                           DiagEngine &Diags);

} // namespace allocsim

#endif // ALLOCSIM_CONFORM_METAMORPHIC_H
