//===- conform/Conformance.h - Paper-replication conformance ----*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conformance engine: scaled-down versions of the paper's experiment
/// matrices run through MatrixRunner and gated on (a) the qualitative claims
/// the paper makes about their shape — allocator orderings, monotone trends
/// (TrendCheck.h) — and (b) tolerance bands around committed expectation
/// values (Expectations.h), plus a metamorphic suite of transformation
/// invariants (Metamorphic.h). This is what `allocsim_cli --conform` runs
/// and what CI's conform job gates on: "the replication still replicates".
///
/// Suites:
///   * missrate:    Figs. 6-8 at reduced scale — miss-rate orderings and
///                  cache-size monotonicity, plus Fig. 1's instruction-
///                  fraction orderings and §3.3's search-length claim.
///   * exectime:    Tables 4-5 / Figs. 4-5 — estimated-time orderings and
///                  §4.3's penalty-sensitivity monotonicity.
///   * tags:        Table 6 — boundary-tag emulation adds tag traffic and
///                  costs time, but little of it.
///   * metamorphic: transformation invariants (see Metamorphic.h).
///
/// Assertions encode only claims that hold *in this simulator at the
/// committed scale and seed* — each was verified by measurement before
/// being committed, and the cases where the reproduction's shape diverges
/// from the paper's exact figures (e.g. orderings that invert at 256K
/// caches) are deliberately not asserted. EXPERIMENTS.md documents the
/// distinction.
///
/// Findings flow through the DiagEngine, human output mirrors --lint, and
/// the JSON report uses schema "allocsim-conform-v1".
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_CONFORM_CONFORMANCE_H
#define ALLOCSIM_CONFORM_CONFORMANCE_H

#include "conform/Expectations.h"
#include "core/MatrixRunner.h"
#include "support/Diag.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace allocsim {

/// Schema identifier of the JSON conformance report.
inline constexpr const char *ConformReportSchema = "allocsim-conform-v1";

/// The suite names runConformance knows, in run order.
std::vector<std::string> conformSuiteNames();

/// The matrix the missrate suite runs: GS-Small and GS-Medium, the five
/// paper allocators plus Custom, BitmapFit and SpaceFit, direct-mapped
/// 16K-256K. Engine scale and seed are left at their defaults; the suite
/// sets them from ConformOptions. bench_ext_modern_allocators renders it.
MatrixSpec missRateSuiteSpec();

/// The matrix the exectime suite runs: espresso and make, the five paper
/// allocators plus BitmapFit and SpaceFit, 16K and 64K caches, penalties
/// 25 and 100 cycles. Defaults as above; also rendered by
/// bench_ext_modern_allocators.
MatrixSpec execTimeSuiteSpec();

/// Configuration of one conformance run.
struct ConformOptions {
  /// Suites to run; empty means all of conformSuiteNames().
  std::vector<std::string> Suites;
  /// Workload scale divisor. The committed expectations are recorded at the
  /// default; other scales run trend assertions only.
  uint32_t Scale = 64;
  /// Base engine seed (salted per workload by the MatrixRunner as usual).
  uint64_t Seed = 1592932958ULL;
  /// Worker threads per matrix; 0 = hardware concurrency.
  unsigned Jobs = 0;
  /// Directory of committed expectation files; empty disables value-band
  /// checking (trend assertions still run).
  std::string ExpectationsDir;
  /// Rewrite the expectation files from this run's measurements instead of
  /// checking against them (the ALLOCSIM_UPDATE_CONFORMANCE protocol).
  bool UpdateExpectations = false;
};

/// Outcome of one suite.
struct ConformSuiteResult {
  std::string Name;
  /// Matrix cells executed (0 for the metamorphic suite's scripted runs).
  size_t CellsRun = 0;
  /// Elementary trend/invariant comparisons evaluated.
  size_t ChecksRun = 0;
  /// Expectation band comparisons evaluated.
  size_t BandChecks = 0;
  size_t Errors = 0;
  size_t Warnings = 0;
};

/// Outcome of one conformance run.
struct ConformReport {
  uint32_t Scale = 0;
  uint64_t Seed = 0;
  std::vector<ConformSuiteResult> Suites;
  DiagEngine Diags;

  bool passed() const { return Diags.errorCount() == 0; }
  size_t totalChecks() const;
};

/// Runs the selected suites. Unknown suite names are reported (rule
/// conform-unknown-suite) and skipped. Never throws on assertion failures —
/// every finding lands in the report's DiagEngine.
ConformReport runConformance(const ConformOptions &Options);

/// Human rendering: per-suite summary lines, then the findings in compiler
/// style (prefixed `--conform`, matching the --lint convention), then a
/// PASS/FAIL verdict line.
void printConformReport(std::ostream &OS, const ConformReport &Report);

/// JSON rendering, schema "allocsim-conform-v1": run configuration,
/// per-suite counters, the diagnostics array, and the verdict.
void writeConformReportJson(std::ostream &OS, const ConformReport &Report);

} // namespace allocsim

#endif // ALLOCSIM_CONFORM_CONFORMANCE_H
