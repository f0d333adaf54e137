//===- analyze/SpecLint.h - Matrix-spec linting -----------------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exhaustive linting of --matrix specs ("workloads=gs;allocators=BSD;...")
/// over the same diagnostics engine TraceLint uses. parseMatrixSpec stops
/// at its first problem — correct for a CLI that is about to refuse the
/// run, useless for fixing a spec with three typos. lintMatrixSpec reports
/// everything at once, with line 1 / column pointing into the spec string.
///
/// Rules (E = error, W = warning):
///
///   spec-empty-axis       E  empty axis (stray or trailing ';')
///   spec-missing-equals   E  axis without '=' or with an empty key
///   spec-duplicate-axis   E  axis key given twice
///   spec-empty-value      E  axis with an empty value ("workloads=")
///   spec-unknown-axis     E  unrecognized axis key
///   spec-unknown-workload E  name tryParseWorkload rejects
///   spec-unknown-allocator E name tryParseAllocatorKind rejects
///   spec-bad-cache        E  cache geometry parseCacheSpec rejects
///   spec-bad-number       E  bad paging/penalty entry
///   spec-bad-value        E  bad telemetry value
///   spec-duplicate-value  W  workload/allocator listed twice (the matrix
///                            would run duplicate cells)
///   spec-missing-workloads E required 'workloads' axis absent or unusable
///                            (the cross-product of cells would be empty)
///   spec-missing-allocators E likewise for 'allocators'
///
/// The structural rules (first four) are shared with parseMatrixSpec via
/// support/SpecParse.h's parseSpecKeyValues; a spec that lints clean always
/// parses, and vice versa.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_ANALYZE_SPECLINT_H
#define ALLOCSIM_ANALYZE_SPECLINT_H

#include "support/Diag.h"

#include <string>

namespace allocsim {

/// Lints one matrix spec string, reporting every finding into \p Diags.
void lintMatrixSpec(const std::string &Text, DiagEngine &Diags);

} // namespace allocsim

#endif // ALLOCSIM_ANALYZE_SPECLINT_H
