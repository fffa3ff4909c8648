"""``repro bench`` — the performance regression harness.

Runs a pinned set of simulations (fixed workload, system, threads, seed,
and scale — so the amount of simulated work is bit-for-bit identical
across revisions) and reports host-side throughput:

* ``events_per_sec`` — processed engine events per second of CPU time
  (``time.process_time``), the primary regression metric.  CPU time is
  used instead of wall time because shared CI runners are noisy; each
  case also takes the best of ``repeat`` runs to shed warm-up and
  scheduling jitter.
* ``peak_rss_kb`` — the process's peak resident set after the sweep
  (``getrusage``), the memory regression metric.

Results are written to ``BENCH_<rev>.json`` (git short revision) under
``benchmarks/perf/history/`` — the working tree's accumulating audit
trail of measurements (cwd outside a source checkout);
``scripts/check_bench.py`` validates the schema and gates a run against
the committed baseline in ``benchmarks/perf/baseline.json``.

The pinned cases deliberately span the simulator's behaviour space:

* ``synth`` — the shared-counter microbenchmark: short transactions,
  high commit rate, dominated by engine + message hot paths.
* ``intruder`` — STAMP's packet-inspection workload: mixed read/write
  sets, frequent conflicts and retries.
* ``vacation`` — STAMP's reservation system: larger read sets, long
  transactions, heavy speculative forwarding under CHATS.

Every case checks the workload's own oracle (``verify`` runs inside the
simulation) — a bench run that computes wrong results fails loudly
rather than reporting a fast wrong number.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

SCHEMA_VERSION = 1

#: Best-of repeats per case (CLI ``--repeat`` overrides).
DEFAULT_REPEAT = 3


@dataclass(frozen=True, slots=True)
class BenchCase:
    """One pinned measurement: the workload/config tuple never changes
    across revisions, only the host-side seconds do."""

    workload: str
    system: str = "chats"
    threads: int = 8
    seed: int = 1
    scale: float = 1.0
    #: Reduced scale used by ``--quick`` (CI smoke); still pinned.
    quick_scale: float = 0.25
    #: Measured and reported but never gated: the case carries no entry
    #: in ``benchmarks/perf/baseline.json`` (check_bench prints SKIP).
    informational: bool = False

    def key(self, *, quick: bool = False) -> str:
        scale = self.quick_scale if quick else self.scale
        return (
            f"{self.workload}/{self.system}/t{self.threads}"
            f"/s{self.seed}/x{scale:g}"
        )


#: The pinned suite.  Scales are chosen so the full suite stays under a
#: minute on a laptop and ``--quick`` under ~10 s on a busy CI runner.
BENCH_CASES = (
    BenchCase("synth", scale=4.0, quick_scale=1.0),
    BenchCase("intruder", scale=0.5, quick_scale=0.2),
    BenchCase("vacation", scale=0.5, quick_scale=0.2),
    # Informational coverage of the registry-defined systems.
    BenchCase(
        "synth", system="stall", scale=2.0, quick_scale=0.5,
        informational=True,
    ),
    BenchCase(
        "synth", system="chats-ts", scale=2.0, quick_scale=0.5,
        informational=True,
    ),
    BenchCase(
        "vacation", system="cap-be", scale=0.5, quick_scale=0.2,
        informational=True,
    ),
    BenchCase(
        "intruder", system="hybrid-be", scale=0.5, quick_scale=0.2,
        informational=True,
    ),
)


def git_revision() -> str:
    """Short revision of the working tree, or ``unknown`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size in KiB (None where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        rss //= 1024
    return int(rss)


def run_case(case: BenchCase, *, quick: bool = False, repeat: int = DEFAULT_REPEAT) -> Dict:
    """Measure one pinned case; returns its result record."""
    from ..sim.config import table2_config
    from ..sim.simulator import run_simulation
    from ..systems.spec import get_spec
    from ..workloads.base import make_workload

    kind = get_spec(case.system)
    scale = case.quick_scale if quick else case.scale
    runs: List[float] = []
    events = cycles = None
    for _ in range(max(1, repeat)):
        # Fresh workload per run: the simulation mutates its memory image.
        workload = make_workload(
            case.workload, threads=case.threads, seed=case.seed, scale=scale
        )
        start = time.process_time()
        result = run_simulation(workload, kind, htm=table2_config(kind))
        seconds = time.process_time() - start
        runs.append(seconds)
        if events is None:
            events, cycles = result.events, result.cycles
        elif (events, cycles) != (result.events, result.cycles):
            raise RuntimeError(
                f"non-deterministic bench case {case.key(quick=quick)}: "
                f"({events}, {cycles}) vs ({result.events}, {result.cycles})"
            )
    best = min(runs)
    return {
        "workload": case.workload,
        "system": case.system,
        "threads": case.threads,
        "seed": case.seed,
        "scale": scale,
        "events": events,
        "cycles": cycles,
        "seconds_best": best,
        "seconds_all": runs,
        "events_per_sec": events / best if best > 0 else float("inf"),
    }


def run_suite(
    *,
    workloads: Optional[List[str]] = None,
    quick: bool = False,
    repeat: int = DEFAULT_REPEAT,
    progress=None,
) -> Dict:
    """Run the pinned suite (optionally a named subset) and return the
    full report dict (the ``BENCH_<rev>.json`` payload)."""
    cases = [
        case
        for case in BENCH_CASES
        if workloads is None or case.workload in workloads
    ]
    if not cases:
        known = [c.workload for c in BENCH_CASES]
        raise ValueError(f"no bench cases selected; choose from {known}")
    results: Dict[str, Dict] = {}
    for case in cases:
        if progress is not None:
            progress(case.key(quick=quick))
        results[case.key(quick=quick)] = run_case(
            case, quick=quick, repeat=repeat
        )
    return {
        "schema": SCHEMA_VERSION,
        "rev": git_revision(),
        "created_unix": int(time.time()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": quick,
        "repeat": repeat,
        "peak_rss_kb": peak_rss_kb(),
        "cases": results,
    }


def history_dir() -> Optional[Path]:
    """The working tree's measurement archive (``benchmarks/perf/history``),
    or None when running outside a source checkout."""
    root = Path(__file__).resolve().parents[3]
    candidate = root / "benchmarks" / "perf" / "history"
    return candidate if candidate.is_dir() else None


def default_output_path(report: Dict, directory: Optional[Path] = None) -> Path:
    """Where ``repro bench`` writes its report.

    Reports land in ``benchmarks/perf/history/`` when run from a source
    checkout, so the audit trail of measurements accumulates in one
    git-visible place; outside a checkout they fall back to the cwd.
    """
    base = directory if directory is not None else history_dir() or Path.cwd()
    return base / f"BENCH_{report['rev']}.json"


def write_report(report: Dict, path: Path) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def format_report(report: Dict) -> str:
    """Human-readable summary table."""
    lines = [
        f"bench @ {report['rev']}  python {report['python']}  "
        f"repeat={report['repeat']}{'  (quick)' if report['quick'] else ''}",
        f"{'case':<34s} {'events':>9s} {'best s':>8s} {'events/s':>12s}",
    ]
    for key in sorted(report["cases"]):
        case = report["cases"][key]
        lines.append(
            f"{key:<34s} {case['events']:>9,d} {case['seconds_best']:>8.3f} "
            f"{case['events_per_sec']:>12,.0f}"
        )
    if report.get("peak_rss_kb"):
        lines.append(f"peak RSS: {report['peak_rss_kb'] / 1024:.1f} MiB")
    return "\n".join(lines)
