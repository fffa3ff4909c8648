#!/usr/bin/env python3
"""Validate a ``repro bench`` report and gate it against the baseline.

Usage::

    PYTHONPATH=src python -m repro bench --quick
    python scripts/check_bench.py benchmarks/perf/history

The report argument is either a ``BENCH_<rev>.json`` file or a directory
(the newest ``BENCH_*.json`` inside is gated — ``repro bench`` defaults
to writing into ``benchmarks/perf/history/``).

Exit codes: 0 = schema valid and no regression; 1 = regression or
malformed report.

The gate compares each measured case's ``events_per_sec`` against the
reference in ``benchmarks/perf/baseline.json`` and fails when the
measurement falls more than ``--tolerance`` (default 15%) below it.
The committed references are deliberately conservative (roughly half of
a developer laptop) so the gate catches real regressions — an engine
change that halves throughput — rather than CI-runner weather.  After an
intentional performance change, or to tighten the floors for a known
hardware class, re-baseline::

    python scripts/check_bench.py bench.json --update-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "perf" / "baseline.json"
)
DEFAULT_TOLERANCE = 0.15

#: Required keys (and types) of the report envelope and of each case.
REPORT_SCHEMA = {
    "schema": int,
    "rev": str,
    "created_unix": int,
    "python": str,
    "quick": bool,
    "repeat": int,
    "cases": dict,
}
CASE_SCHEMA = {
    "workload": str,
    "system": str,
    "threads": int,
    "seed": int,
    "scale": (int, float),
    "events": int,
    "cycles": int,
    "seconds_best": (int, float),
    "events_per_sec": (int, float),
}


def validate_report(report: dict) -> list:
    """Return a list of schema problems (empty = valid)."""
    problems = []
    for key, typ in REPORT_SCHEMA.items():
        if key not in report:
            problems.append(f"missing top-level key {key!r}")
        elif not isinstance(report[key], typ):
            problems.append(
                f"top-level {key!r} has type {type(report[key]).__name__}, "
                f"expected {typ.__name__}"
            )
    if problems:
        return problems
    if report["schema"] != 1:
        problems.append(f"unsupported schema version {report['schema']}")
    if not report["cases"]:
        problems.append("report contains no cases")
    for key, case in report["cases"].items():
        for field, typ in CASE_SCHEMA.items():
            if field not in case:
                problems.append(f"case {key}: missing {field!r}")
            elif not isinstance(case[field], typ):
                problems.append(
                    f"case {key}: {field!r} has type "
                    f"{type(case[field]).__name__}"
                )
        if "events_per_sec" in case and case.get("events_per_sec", 0) <= 0:
            problems.append(f"case {key}: non-positive events_per_sec")
    return problems


def gate(report: dict, baseline: dict, tolerance: float) -> int:
    """Print the comparison; return the number of regressions."""
    refs = baseline.get("cases", {})
    regressions = 0
    for key in sorted(report["cases"]):
        measured = report["cases"][key]["events_per_sec"]
        ref = refs.get(key)
        if ref is None:
            print(f"  SKIP {key}: no baseline reference")
            continue
        floor = ref * (1.0 - tolerance)
        verdict = "ok" if measured >= floor else "REGRESSION"
        if measured < floor:
            regressions += 1
        print(
            f"  {verdict:>10s} {key}: {measured:,.0f} ev/s "
            f"(floor {floor:,.0f} = {ref:,.0f} - {tolerance:.0%})"
        )
    rss_max = baseline.get("max_peak_rss_kb")
    rss = report.get("peak_rss_kb")
    if rss_max is not None and rss is not None:
        if rss > rss_max:
            regressions += 1
            print(
                f"  REGRESSION peak RSS {rss / 1024:.1f} MiB exceeds "
                f"{rss_max / 1024:.1f} MiB"
            )
        else:
            print(
                f"          ok peak RSS {rss / 1024:.1f} MiB "
                f"(max {rss_max / 1024:.1f} MiB)"
            )
    return regressions


def update_baseline(report: dict, baseline_path: Path) -> None:
    """Write the report's numbers into the baseline."""
    baseline = (
        json.loads(baseline_path.read_text()) if baseline_path.exists() else {}
    )
    baseline.setdefault("comment", "events/sec references; see check_bench.py")
    baseline.setdefault("cases", {})
    for key, case in report["cases"].items():
        baseline["cases"][key] = round(case["events_per_sec"])
    rss = report.get("peak_rss_kb")
    if rss is not None:
        # Generous ceiling: double the observed peak.
        baseline["max_peak_rss_kb"] = max(
            2 * rss, baseline.get("max_peak_rss_kb", 0)
        )
    baseline_path.parent.mkdir(parents=True, exist_ok=True)
    baseline_path.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"updated {baseline_path} with {len(report['cases'])} references"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "report",
        help="BENCH_<rev>.json produced by repro bench, or a directory "
        "(e.g. benchmarks/perf/history) whose newest BENCH_*.json is used",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"baseline file (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fraction below the reference (default: 0.15)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the report's numbers into the baseline instead of gating",
    )
    args = parser.parse_args(argv)

    report_path = Path(args.report)
    if report_path.is_dir():
        # mtime picks the newest report; filename breaks ties so two
        # reports written within the same clock tick gate deterministically.
        candidates = sorted(
            report_path.glob("BENCH_*.json"),
            key=lambda p: (p.stat().st_mtime, p.name),
        )
        if not candidates:
            print(
                f"empty history: no BENCH_*.json in {report_path} — run "
                "`PYTHONPATH=src python -m repro bench` to record one",
                file=sys.stderr,
            )
            return 1
        report_path = candidates[-1]
        print(f"using newest report {report_path}")
    elif not report_path.exists():
        print(f"report {report_path} does not exist", file=sys.stderr)
        return 1
    try:
        report = json.loads(report_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return 1

    problems = validate_report(report)
    if problems:
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        return 1
    print(f"schema ok: {len(report['cases'])} cases @ rev {report['rev']}")

    if args.update_baseline:
        update_baseline(report, args.baseline)
        return 0

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; nothing to gate", file=sys.stderr)
        return 1
    baseline = json.loads(args.baseline.read_text())
    regressions = gate(report, baseline, args.tolerance)
    if regressions:
        print(f"{regressions} regression(s)", file=sys.stderr)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
