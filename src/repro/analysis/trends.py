"""Per-PR performance records from ``benchmarks/perf/history/``.

Each PR that measures a change keeps the raw stdout of its perfbench
runs (``python3 perfbench/run.py ... >> FILE``) in
``pr<N>/parent.jsonl`` (the parent commit) and ``pr<N>/change.jsonl``
(the change).  perfbench prints two lines per workload run: an
``{"environment": {"workload": ...}}`` line, then a result line with
``correct``, ``attempted``, ``failed`` and ``metrics`` (name -> value
and unit).  A ``--workload all`` run ends with one more result line
that only repeats the three above it under ``<workload>/<metric>``
names; it follows no environment line and is skipped.

:func:`load_history` reads every ``pr<N>`` directory and
:func:`format_trend` prints, per PR, workload and metric, the median of
the parent's runs, the median of the change's runs and their delta.
Runs made with ``--trace 1`` report the per-layer metrics, so those
appear whenever a record holds traced runs.

Each metric line also carries the pair rule's numbers
(docs/PERFORMANCE.md).  A parent run pairs with the change run of the
same workload and benchmark seed (the environment line's ``seed``), in
file order, metric by metric: the k-th parent value of a metric at seed
N with the k-th change value at seed N.  Traced runs report only the
per-layer metrics, so they pair only with each other.  A run with no
partner stays unpaired.  The line gives the number of pairs, how many
read higher on the change side, the median of the per-pair ratios
(change over parent) with their inclusive first and third quartiles,
and the parent's inclusive quartiles.  The ratio quartiles show how
widely the pairs spread around their median: a drift of the host moves
both runs of a pair, so it widens the parent's unpaired quartiles but
not the ratios'.  Which way is better is each metric's ``better`` in
``BENCHMARK.json``.

Loading is strict: a missing or empty history, a ``pr<N>`` directory
without both files, or a line that is not a perfbench line raises
:class:`TrendError`, because a silently skipped record would falsify
the history.  ``repro trend`` maps that to exit 1.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict, deque
from pathlib import Path
from statistics import median, quantiles
from typing import Deque, Dict, List, Tuple

SIDES = ("parent", "change")

_PR_DIR = re.compile(r"pr(\d+)")


class TrendError(RuntimeError):
    """History missing or empty, or a record that cannot be read."""


class WorkloadRuns:
    """Every run of one workload in one record file."""

    __slots__ = ("runs", "failed", "metrics", "seeds")

    def __init__(self) -> None:
        self.runs = 0
        #: Failed operations summed over the runs.
        self.failed = 0
        #: metric name -> (unit, one value per run that reported it).
        self.metrics: Dict[str, Tuple[str, List[float]]] = {}
        #: metric name -> the benchmark seed of each of its values.
        self.seeds: Dict[str, List[int]] = {}


#: ``(N, {"parent": records, "change": records})`` per ``pr<N>``, where
#: records map a workload to its :class:`WorkloadRuns`.
History = List[Tuple[int, Dict[str, Dict[str, WorkloadRuns]]]]

def _metric_value(metric) -> Tuple[str, float]:
    value = metric.get("value") if isinstance(metric, dict) else None
    unit = metric.get("unit") if isinstance(metric, dict) else None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not isinstance(unit, str)
    ):
        raise ValueError(f"metric {metric!r} has no numeric value and unit")
    return unit, float(value)


def _load_records(path: Path) -> Dict[str, WorkloadRuns]:
    """The runs of one ``parent.jsonl`` or ``change.jsonl``, by workload."""
    workloads: Dict[str, WorkloadRuns] = {}
    workload = None  # named by the environment line just read
    try:
        lines = path.read_text("utf-8").splitlines()
    except OSError as exc:
        raise TrendError(f"cannot read {path}: {exc}") from exc
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict):
                raise ValueError("not a JSON object")
            if "environment" in doc:
                workload = doc["environment"]["workload"]
                seed = doc["environment"]["seed"]
                if not isinstance(workload, str):
                    raise ValueError("environment names no workload")
                if isinstance(seed, bool) or not isinstance(seed, int):
                    raise ValueError("environment names no seed")
                continue
            metrics = {
                name: _metric_value(metric)
                for name, metric in doc["metrics"].items()
            }
            failed = int(doc["failed"])
            if workload is None:
                continue  # the total line of a ``--workload all`` run
            runs = workloads.setdefault(workload, WorkloadRuns())
            runs.runs += 1
            runs.failed += failed
            for name, (unit, value) in metrics.items():
                runs.metrics.setdefault(name, (unit, []))[1].append(value)
                runs.seeds.setdefault(name, []).append(seed)
            workload = None
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise TrendError(
                f"{path}:{number}: not a perfbench line ({exc})"
            ) from exc
    if not workloads:
        raise TrendError(f"{path}: no perfbench result line")
    return workloads


def load_history(directory) -> History:
    """Every ``pr<N>`` record under ``directory``, oldest PR first."""
    directory = Path(directory)
    if not directory.is_dir():
        raise TrendError(f"history directory {directory} does not exist")
    prs = sorted(
        (int(match.group(1)), path)
        for path in directory.iterdir()
        if path.is_dir() and (match := _PR_DIR.fullmatch(path.name))
    )
    if not prs:
        raise TrendError(
            f"no pr<N>/ records in {directory}: append perfbench's stdout "
            "to pr<N>/parent.jsonl and pr<N>/change.jsonl"
        )
    history = []
    for number, path in prs:
        sides = {}
        for side in SIDES:
            record = path / f"{side}.jsonl"
            if not record.is_file():
                raise TrendError(f"{path} has no {side}.jsonl")
            sides[side] = _load_records(record)
        history.append((number, sides))
    return history


def _fmt(value) -> str:
    if value is None:
        return "-"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def _median(runs: WorkloadRuns, name: str):
    return median(runs.metrics[name][1]) if name in runs.metrics else None


def pairs(
    parent: WorkloadRuns, change: WorkloadRuns, name: str
) -> List[Tuple[float, float]]:
    """``(parent, change)`` values of ``name`` paired by benchmark seed,
    in file order; a value with no partner is left out."""
    if name not in parent.metrics or name not in change.metrics:
        return []
    waiting: Dict[int, Deque[float]] = defaultdict(deque)
    for seed, value in zip(change.seeds[name], change.metrics[name][1]):
        waiting[seed].append(value)
    return [
        (value, waiting[seed].popleft())
        for seed, value in zip(parent.seeds[name], parent.metrics[name][1])
        if waiting[seed]
    ]


def _quartiles(values: List[float]):
    """Inclusive first and third quartiles; ``None`` for no values."""
    if len(values) > 1:
        q1, _, q3 = quantiles(values, n=4, method="inclusive")
        return q1, q3
    return (values[0], values[0]) if values else (None, None)


def _pair_columns(parent: WorkloadRuns, change: WorkloadRuns, name: str):
    """Pairs, pairs read higher on the change side, the median pair
    ratio and its first and third quartiles, and the parent's first and
    third quartiles."""
    paired = pairs(parent, change, name)
    higher = sum(new > old for old, new in paired) if paired else None
    ratios = [new / old for old, new in paired if old]
    ratio_columns = ["-"] * 3
    if ratios:
        ratio_columns = [
            f"{value:.3f}" for value in (median(ratios), *_quartiles(ratios))
        ]
    values = parent.metrics[name][1] if name in parent.metrics else []
    q1, q3 = _quartiles(values)
    return (str(len(paired)), _fmt(higher), *ratio_columns, _fmt(q1), _fmt(q3))


def format_trend(history: History) -> str:
    """One block per PR: each workload's run counts, then one line per
    metric with the parent median, the change median, the delta and the
    pair columns (:func:`pairs`)."""
    lines = [
        f"{'':<38} {'parent':>12} {'change':>12} {'delta':>8} "
        f"{'pairs':>5} {'higher':>6} {'ratio':>6} {'ratio q1':>8} "
        f"{'ratio q3':>8} {'parent q1':>12} {'parent q3':>12}"
    ]
    for number, sides in history:
        lines.append(f"pr{number}")
        for workload in sorted(set(sides["parent"]) | set(sides["change"])):
            parent, change = (
                sides[side].get(workload, WorkloadRuns()) for side in SIDES
            )
            lines.append(
                f"  {workload}: parent {parent.runs} runs, {parent.failed} "
                f"failed ops; change {change.runs} runs, {change.failed} "
                "failed ops"
            )
            for name in sorted(set(parent.metrics) | set(change.metrics)):
                unit = (parent.metrics.get(name) or change.metrics[name])[0]
                old, new = _median(parent, name), _median(change, name)
                delta = "-"
                if old and new is not None:
                    delta = f"{new / old - 1:+.1%}"
                count, higher, ratio, ratio_q1, ratio_q3, q1, q3 = (
                    _pair_columns(parent, change, name)
                )
                lines.append(
                    f"    {name:<34} {_fmt(old):>12} {_fmt(new):>12} "
                    f"{delta:>8} {count:>5} {higher:>6} {ratio:>6} "
                    f"{ratio_q1:>8} {ratio_q3:>8} {q1:>12} {q3:>12}  {unit}"
                )
    return "\n".join(lines)
