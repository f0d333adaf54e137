#!/usr/bin/env python3
"""Perf-regression gate for the measurement hot paths.

Compares fresh bench reports against the committed baselines at the repo
root, given as one or more (baseline, current) path pairs:

    check_perf_baseline.py BENCH_pipeline.json perf_current.json \\
        [BENCH_cache_engines.json engines_current.json ...]

Two report schemas are understood, both shaped as {"schema": ...,
"configs": [{"name": ..., "<slow>_refs_per_sec": ..., "<fast>_refs_per_sec":
..., "speedup": ...}, ...]}:

  * allocsim-bench-pipeline-v2 (bench_pipeline_throughput): speedup is a
    production sink set fed span records over the same sinks fed the
    records' word-by-word expansion, both replays of one captured stream;
  * allocsim-bench-engines-v2 (bench_cache_engines): speedup is the
    automatically chosen cache engine over per-config CacheBank
    simulation.

The comparison is on the *speedup ratios*, measured on the same machine
within the same run, which is hardware-independent: CI boxes are slower
than the machine that produced the baseline, but the ratio between the two
modes should hold anywhere. Absolute refs/sec are never compared. A config
regresses when its current speedup falls below the baseline speedup by more
than the tolerance (default 30%). A baseline config may additionally carry
a "min_speedup" key: an absolute floor the current speedup must meet
regardless of tolerance (this is how the one-pass engine's claims on the
multi-config sweeps are pinned).

Exit status: 0 = pass; 1 = regression, or a malformed/missing *current*
report (the thing being tested); 2 = bad usage, or a malformed/missing
*baseline* (the gate itself is broken and must not pass vacuously).

Refreshing a baseline after an intentional change:

    build/bench/bench_pipeline_throughput --out=BENCH_pipeline.json
    build/bench/bench_cache_engines --out=BENCH_cache_engines.json

then restore any min_speedup keys and commit (DESIGN.md sections 10, 17).
"""

import argparse
import json
import sys

# schema name -> the two rate keys every config row must carry.
SCHEMAS = {
    "allocsim-bench-pipeline-v2": (
        "expanded_refs_per_sec",
        "span_refs_per_sec",
    ),
    "allocsim-bench-engines-v2": (
        "bank_refs_per_sec",
        "auto_refs_per_sec",
    ),
}

PASS, FAIL, BROKEN_GATE = 0, 1, 2


class ReportError(Exception):
    """Structural problem in one report file."""


def load_report(path):
    """Loads and structurally validates one report.

    Returns (schema, {name: config}); raises ReportError on malformation.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise ReportError(f"cannot read {path}: {err}") from err
    schema = report.get("schema") if isinstance(report, dict) else None
    if schema not in SCHEMAS:
        raise ReportError(
            f"{path}: schema {schema!r}, expected one of "
            + ", ".join(sorted(SCHEMAS))
        )
    configs = report.get("configs")
    if not isinstance(configs, list) or not configs:
        raise ReportError(f"{path}: empty or missing configs")
    for config in configs:
        if not isinstance(config, dict):
            raise ReportError(f"{path}: non-object config entry")
        for key in ("name",) + SCHEMAS[schema] + ("speedup",):
            if key not in config:
                raise ReportError(f"{path}: config missing {key!r}")
        if config[SCHEMAS[schema][0]] <= 0 or config["speedup"] <= 0:
            raise ReportError(
                f"{path}: non-positive rate in config {config['name']!r}"
            )
    return schema, {config["name"]: config for config in configs}


def check_pair(baseline_path, current_path, tolerance):
    """Gates one (baseline, current) pair; returns PASS/FAIL/BROKEN_GATE."""
    try:
        base_schema, baseline = load_report(baseline_path)
    except ReportError as err:
        print(f"check_perf_baseline: bad baseline: {err}", file=sys.stderr)
        return BROKEN_GATE
    try:
        cur_schema, current = load_report(current_path)
    except ReportError as err:
        print(f"check_perf_baseline: {err}", file=sys.stderr)
        return FAIL
    if base_schema != cur_schema:
        print(
            f"check_perf_baseline: schema mismatch: {baseline_path} is "
            f"{base_schema}, {current_path} is {cur_schema}",
            file=sys.stderr,
        )
        return FAIL

    missing = sorted(set(baseline) - set(current))
    if missing:
        print(
            "check_perf_baseline: current report lacks baseline configs: "
            + ", ".join(missing),
            file=sys.stderr,
        )
        return FAIL

    failed = False
    ratios = []
    for name, base in sorted(baseline.items()):
        cur = current[name]
        floor = base["speedup"] * (1 - tolerance)
        min_speedup = base.get("min_speedup")
        if min_speedup is not None:
            floor = max(floor, min_speedup)
        ratio = cur["speedup"] / base["speedup"]
        ratios.append(ratio)
        verdict = "ok" if cur["speedup"] >= floor else "REGRESSED"
        failed |= verdict == "REGRESSED"
        floor_note = (
            f"floor {floor:.3f}"
            if min_speedup is None
            else f"floor {floor:.3f} (min_speedup {min_speedup:.3f})"
        )
        print(
            f"{name:14s} baseline speedup {base['speedup']:.3f}  "
            f"current {cur['speedup']:.3f}  {floor_note}  "
            f"ratio {ratio:.3f}  {verdict}"
        )

    if failed:
        print(
            f"check_perf_baseline: {current_path}: speedup fell below the "
            f"committed floor ({base_schema})",
            file=sys.stderr,
        )
        return FAIL
    print(
        f"check_perf_baseline: {current_path}: all configs within tolerance "
        f"(measured/baseline ratio min {min(ratios):.3f}, "
        f"max {max(ratios):.3f})"
    )
    return PASS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "reports",
        nargs="+",
        metavar="baseline current",
        help="one or more (committed baseline, fresh report) path pairs",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional speedup drop before failing (default 0.30)",
    )
    args = parser.parse_args()
    if not 0 < args.tolerance < 1:
        parser.error("--tolerance must be in (0, 1)")
    if len(args.reports) % 2 != 0:
        parser.error(
            "reports must come in (baseline, current) pairs, got "
            f"{len(args.reports)} paths"
        )

    worst = PASS
    for i in range(0, len(args.reports), 2):
        result = check_pair(
            args.reports[i], args.reports[i + 1], args.tolerance
        )
        worst = max(worst, result)
    return worst


if __name__ == "__main__":
    sys.exit(main())
