//===- analyze/SpecLint.cpp - Matrix-spec linting -------------------------===//

#include "analyze/SpecLint.h"

#include "alloc/Allocator.h"
#include "core/MatrixRunner.h"
#include "stats/Telemetry.h"
#include "support/SpecParse.h"
#include "workload/Workload.h"

#include <set>

using namespace allocsim;

namespace {

/// Walks the comma-separated items of an axis value, handing each item to
/// \p Check together with its location in the spec string. \p ValueOffset
/// is the 0-based offset of the value's first character.
template <typename Fn>
void forEachItem(const std::string &Value, size_t ValueOffset, Fn Check) {
  size_t ItemOffset = 0;
  for (const std::string &Item : splitSpecList(Value, ',')) {
    SourceLoc Loc{1, static_cast<uint32_t>(ValueOffset + ItemOffset + 1)};
    Check(Item, Loc);
    ItemOffset += Item.size() + 1;
  }
}

} // namespace

void allocsim::lintMatrixSpec(const std::string &Text, DiagEngine &Diags) {
  // Structural pass (shared with parseMatrixSpec): axis shape, duplicate
  // keys, empty values.
  std::vector<SpecKeyValue> Axes = parseSpecKeyValues(Text, Diags);

  bool SawWorkloads = false, SawAllocators = false;
  bool WorkloadsUsable = false, AllocatorsUsable = false;
  for (const SpecKeyValue &Axis : Axes) {
    SourceLoc AxisLoc{1, static_cast<uint32_t>(Axis.Offset + 1)};
    size_t ValueOffset = Axis.Offset + Axis.Key.size() + 1;
    if (Axis.Key == "workloads") {
      SawWorkloads = true;
      std::set<WorkloadId> Seen;
      forEachItem(Axis.Value, ValueOffset,
                  [&](const std::string &Item, SourceLoc Loc) {
                    WorkloadId Id;
                    if (Item.empty() || !tryParseWorkload(Item, Id)) {
                      Diags.error("spec-unknown-workload", Loc,
                                  "unknown workload '" + Item + "'");
                      return;
                    }
                    WorkloadsUsable = true;
                    if (!Seen.insert(Id).second)
                      Diags.warning("spec-duplicate-value", Loc,
                                    "workload '" + Item +
                                        "' listed twice (duplicate matrix "
                                        "cells)");
                  });
    } else if (Axis.Key == "allocators") {
      SawAllocators = true;
      std::set<AllocatorKind> Seen;
      forEachItem(Axis.Value, ValueOffset,
                  [&](const std::string &Item, SourceLoc Loc) {
                    AllocatorKind Kind;
                    if (Item.empty() || !tryParseAllocatorKind(Item, Kind)) {
                      Diags.error("spec-unknown-allocator", Loc,
                                  "unknown allocator '" + Item + "'");
                      return;
                    }
                    AllocatorsUsable = true;
                    if (!Seen.insert(Kind).second)
                      Diags.warning("spec-duplicate-value", Loc,
                                    "allocator '" + Item +
                                        "' listed twice (duplicate matrix "
                                        "cells)");
                  });
    } else if (Axis.Key == "caches") {
      forEachItem(Axis.Value, ValueOffset,
                  [&](const std::string &Item, SourceLoc Loc) {
                    CacheConfig Config;
                    std::string Why;
                    if (!parseCacheSpec(Item, Config, Why))
                      Diags.error("spec-bad-cache", Loc, Why);
                  });
    } else if (Axis.Key == "paging" || Axis.Key == "penalty") {
      const char *What = Axis.Key == "paging" ? "paging memory size (KB)"
                                              : "miss penalty (cycles)";
      forEachItem(Axis.Value, ValueOffset,
                  [&](const std::string &Item, SourceLoc Loc) {
                    uint32_t Value;
                    std::string Why;
                    if (!parseSpecUnsigned(Item, What, Value, Why))
                      Diags.error("spec-bad-number", Loc, Why);
                  });
    } else if (Axis.Key == "telemetry") {
      TelemetryLevel Level;
      if (!tryParseTelemetryLevel(Axis.Value, Level))
        Diags.error("spec-bad-value",
                    {1, static_cast<uint32_t>(ValueOffset + 1)},
                    "bad telemetry level '" + Axis.Value +
                        "' (expected off, summary or full)");
    } else {
      Diags.error("spec-unknown-axis", AxisLoc,
                  "unknown axis '" + Axis.Key +
                      "' (expected workloads/allocators/caches/paging/"
                      "penalty/telemetry)");
    }
  }

  // An absent or fully-bad required axis means the workload x allocator
  // cross-product is empty: nothing would run. Only report the
  // missing-axis rule when the axis itself was absent — bad names already
  // carry their own errors.
  if (!SawWorkloads)
    Diags.error("spec-missing-workloads", {},
                "matrix spec must name at least one workload "
                "(workloads=gs,espresso,...)");
  else if (!WorkloadsUsable)
    Diags.error("spec-missing-workloads", {},
                "no usable workload survives the 'workloads' axis; the "
                "cell cross-product is empty");
  if (!SawAllocators)
    Diags.error("spec-missing-allocators", {},
                "matrix spec must name at least one allocator "
                "(allocators=FirstFit,BSD,...)");
  else if (!AllocatorsUsable)
    Diags.error("spec-missing-allocators", {},
                "no usable allocator survives the 'allocators' axis; the "
                "cell cross-product is empty");
}
