"""Cross-revision performance trends from ``benchmarks/perf/history/``.

``repro bench`` appends one ``BENCH_<rev>.json`` report per revision to
the history directory; this module reads the whole archive and renders
the speed curve across PRs — per pinned case, oldest report to newest,
with per-step deltas and regression flags — so the trajectory the
ROADMAP asks for is visible in-repo instead of only as CI artifacts.

Loading is strict: one unreadable, unparsable, or schema-violating
report fails the whole load (:class:`TrendError`), because a silently
skipped report would falsify the curve.  ``repro trend`` maps that to a
nonzero exit.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional

SCHEMA = "repro-trend/1"

#: Flag a case dropping more than this fraction below the previous
#: report (matches ``scripts/check_bench.py``'s gate default).
DEFAULT_TOLERANCE = 0.15

#: Keys every history report must carry (subset of the bench schema).
_REQUIRED = ("schema", "rev", "created_unix", "cases")


class TrendError(RuntimeError):
    """History directory missing, empty, or holding a corrupt report."""


def load_history(directory: Path) -> List[Dict]:
    """Load every ``BENCH_*.json`` in ``directory``, oldest first.

    Reports are ordered by ``created_unix`` (filename as the
    deterministic tie-break).  Each returned dict gains a ``_path`` key
    naming its source file.  Raises :class:`TrendError` on a missing
    directory, an empty history, or any corrupt report.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise TrendError(f"history directory {directory} does not exist")
    paths = sorted(directory.glob("BENCH_*.json"))
    if not paths:
        raise TrendError(
            f"no BENCH_*.json reports in {directory} — run "
            "`PYTHONPATH=src python -m repro bench` to record one"
        )
    reports: List[Dict] = []
    for path in paths:
        try:
            report = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError) as exc:
            raise TrendError(f"corrupt report {path}: {exc}") from exc
        if not isinstance(report, dict):
            raise TrendError(f"corrupt report {path}: not a JSON object")
        missing = [key for key in _REQUIRED if key not in report]
        if missing:
            raise TrendError(
                f"corrupt report {path}: missing keys {missing}"
            )
        if not isinstance(report["cases"], dict) or not report["cases"]:
            raise TrendError(f"corrupt report {path}: no cases")
        for key, case in report["cases"].items():
            eps = case.get("events_per_sec") if isinstance(case, dict) else None
            if not isinstance(eps, (int, float)) or eps <= 0:
                raise TrendError(
                    f"corrupt report {path}: case {key!r} has no positive "
                    "events_per_sec"
                )
        report["_path"] = str(path)
        reports.append(report)
    reports.sort(key=lambda r: (r["created_unix"], Path(r["_path"]).name))
    return reports


def _case_keys(reports: List[Dict]) -> List[str]:
    keys: List[str] = []
    for report in reports:
        for key in report["cases"]:
            if key not in keys:
                keys.append(key)
    return sorted(keys)


def trend_dict(
    reports: List[Dict],
    *,
    baseline: Optional[Dict] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Dict:
    """Structured trend: per-case series across reports plus flags.

    A point is flagged as a regression when it drops more than
    ``tolerance`` below the same case's value in the previous report
    that measured it, or falls below the committed baseline floor
    (``ref * (1 - tolerance)``).
    """
    floors = (baseline or {}).get("cases", {})
    cases: Dict[str, List[Dict]] = {}
    regressions: List[Dict] = []
    for key in _case_keys(reports):
        series: List[Dict] = []
        prev: Optional[Dict] = None
        for report_index, report in enumerate(reports):
            case = report["cases"].get(key)
            if case is None:
                continue
            eps = float(case["events_per_sec"])
            delta = None
            if prev is not None:
                delta = eps / prev["events_per_sec"] - 1.0
            ref = floors.get(key)
            below_floor = (
                ref is not None and eps < float(ref) * (1.0 - tolerance)
            )
            regressed = (
                delta is not None and delta < -tolerance
            ) or below_floor
            point = {
                "rev": report["rev"],
                # Position in the (sorted) reports list: the stable
                # column key.
                "report_index": report_index,
                "created_unix": report["created_unix"],
                "quick": bool(report.get("quick", False)),
                "events_per_sec": eps,
                "delta": round(delta, 4) if delta is not None else None,
                "baseline_floor": (
                    round(float(ref) * (1.0 - tolerance)) if ref else None
                ),
                "regression": regressed,
            }
            series.append(point)
            if regressed:
                regressions.append(
                    {
                        "case": key,
                        "rev": report["rev"],
                        "prev_rev": prev["rev"] if prev else None,
                        "delta": point["delta"],
                        "events_per_sec": eps,
                        "below_baseline_floor": below_floor,
                    }
                )
            prev = point
        cases[key] = series
    return {
        "schema": SCHEMA,
        "tolerance": tolerance,
        "reports": [
            {
                "rev": r["rev"],
                "created_unix": r["created_unix"],
                "quick": bool(r.get("quick", False)),
                "python": r.get("python"),
                "path": r["_path"],
            }
            for r in reports
        ],
        "cases": cases,
        "regressions": regressions,
    }


def _fmt_rate(value: float) -> str:
    if value >= 100_000:
        return f"{value / 1000:,.0f}k"
    if value >= 10_000:
        return f"{value / 1000:.1f}k"
    return f"{value:,.0f}"


def _fmt_when(unix: float) -> str:
    return datetime.fromtimestamp(unix, tz=timezone.utc).strftime(
        "%Y-%m-%d"
    )


def format_trend(
    reports: List[Dict],
    *,
    baseline: Optional[Dict] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> str:
    """Aligned text table: rows = pinned cases, columns = revisions
    (oldest left).  ``!`` marks a flagged point; quick-scale reports are
    starred (their case keys never collide with full-scale ones)."""
    trend = trend_dict(reports, baseline=baseline, tolerance=tolerance)
    revs = [r["rev"] + ("*" if r["quick"] else "") for r in trend["reports"]]
    title = (
        f"perf history — {len(reports)} report(s), "
        f"{_fmt_when(reports[0]['created_unix'])} .. "
        f"{_fmt_when(reports[-1]['created_unix'])}"
    )
    label_w = max([len(k) for k in trend["cases"]] + [10]) + 1
    col_w = max([len(r) for r in revs] + [9]) + 2
    lines = [title, "=" * len(title)]
    lines.append(
        "case".ljust(label_w) + "".join(rev.rjust(col_w) for rev in revs)
    )
    lines.append("-" * (label_w + col_w * len(revs)))
    for key, series in trend["cases"].items():
        by_index = {p["report_index"]: p for p in series}
        cells = []
        for report_index, report in enumerate(trend["reports"]):
            point = by_index.get(report_index)
            if point is None:
                cells.append("-".rjust(col_w))
            else:
                text = _fmt_rate(point["events_per_sec"])
                if point["regression"]:
                    text += "!"
                cells.append(text.rjust(col_w))
        lines.append(key.ljust(label_w) + "".join(cells))
    lines.append("")
    if trend["regressions"]:
        lines.append(
            f"regression flags (tolerance {tolerance:.0%}; '!' above):"
        )
        for flag in trend["regressions"]:
            reason = (
                "below baseline floor"
                if flag["below_baseline_floor"]
                else f"{flag['delta']:+.1%} vs {flag['prev_rev']}"
            )
            lines.append(
                f"  {flag['case']} @ {flag['rev']}: "
                f"{_fmt_rate(flag['events_per_sec'])} ev/s ({reason})"
            )
    else:
        lines.append(f"no regressions flagged (tolerance {tolerance:.0%})")
    lines.append("")
    lines.append("reports (oldest first; * = --quick scales):")
    for i, report in enumerate(trend["reports"], 1):
        star = "*" if report["quick"] else " "
        lines.append(
            f"  [{i}] {report['rev']}{star} "
            f"{_fmt_when(report['created_unix'])}  "
            f"py{report.get('python') or '?'}  {report['path']}"
        )
    return "\n".join(lines)
