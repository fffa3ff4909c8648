"""One entry point per figure of the paper's evaluation.

Each ``figN()`` function runs (or fetches from the cache) the cells its
registry entry declares (:func:`~repro.experiments.registry.experiment_cells`),
in one ``run_many`` batch, and returns a :class:`FigureResult`: the
structured data series plus a rendered text table.  The benches under
``benchmarks/`` are thin wrappers that time these functions and print the
rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from ..analysis import metrics
from ..analysis.tables import format_heatmap, format_stacked, format_table
from ..sim.results import SimulationResult
from ..systems import ForwardClass, SystemSpec, paper, paper_systems
from ..systems.capacity import CAPACITY_SWEEP
from .registry import (
    FORWARD_CLASS_SWEEP,
    RETRY_SWEEP,
    VALIDATION_INTERVALS,
    VSB_SIZES,
    experiment_cells,
    get_experiment,
)
from .runner import run_many


@dataclass
class FigureResult:
    """Structured output of one reproduced figure."""

    experiment_id: str
    title: str
    #: series name -> row label -> value (normalised unless stated).
    series: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: free-form extra payloads (stacks, heat maps, raw results).
    extra: Dict[str, object] = field(default_factory=dict)
    rendering: str = ""

    def mean(self, series: str, *, geometric: bool = False) -> float:
        """STAMP-only mean of a series (micros excluded, paper convention)."""
        return metrics.mean_normalized_time(
            self.series[series], geometric=geometric
        )


#: Results of a figure's cells, grouped ``(system, variant) -> workload
#: -> result``.
Runs = Dict[Tuple[SystemSpec, Hashable], Dict[str, SimulationResult]]


def _runs(figure_id: str, workloads, **params) -> Runs:
    """Run (or fetch) every cell ``figure_id`` declares, in one
    ``run_many`` batch (``REPRO_WORKERS``-wide)."""
    cells = list(experiment_cells(figure_id, workloads, **params))
    results = run_many([cfg for _, cfg in cells])
    runs: Runs = {}
    for ((system, variant, w), _), result in zip(cells, results):
        runs.setdefault((system, variant), {})[w] = result
    return runs


def _system_runs(
    figure_id: str, workloads
) -> Dict[SystemSpec, Dict[str, SimulationResult]]:
    """:func:`_runs` of a figure that sweeps systems only."""
    return {system: r for (system, _), r in _runs(figure_id, workloads).items()}


# ----------------------------------------------------------------------
# Fig. 1 — naive requester-speculates vs baseline.
# ----------------------------------------------------------------------
def fig1(workloads: Optional[Tuple[str, ...]] = None) -> FigureResult:
    exp = get_experiment("fig1")
    workloads = workloads or exp.workloads
    runs = _system_runs("fig1", workloads)
    base = runs[paper.BASELINE]
    naive = runs[paper.NAIVE_RS]
    series = {
        "Baseline": {w: 1.0 for w in workloads},
        "Naive R-S": metrics.normalized_times(naive, base),
    }
    result = FigureResult("fig1", exp.title, series)
    mean = result.mean("Naive R-S")
    result.rendering = format_table(
        "Fig. 1 — Normalized execution time, naive requester-speculates",
        metrics.order_workloads(workloads),
        series,
        footer={
            "STAMP mean (Naive R-S)": f"{mean:.3f} "
            f"({'no benefit' if mean >= 0.97 else 'unexpected gain'})"
        },
    )
    return result


# ----------------------------------------------------------------------
# Fig. 4 — execution time, all systems.
# ----------------------------------------------------------------------
def fig4(workloads: Optional[Tuple[str, ...]] = None) -> FigureResult:
    exp = get_experiment("fig4")
    workloads = workloads or exp.workloads
    runs = _system_runs("fig4", workloads)
    base = runs[paper.BASELINE]
    series = {
        s.label: metrics.normalized_times(runs[s], base)
        for s in paper_systems()
    }
    result = FigureResult("fig4", exp.title, series, extra={"runs": runs})
    footer = {}
    for s in (paper.CHATS, paper.PCHATS):
        label = s.label
        footer[f"STAMP mean ({label})"] = (
            f"arith {result.mean(label):.3f} / "
            f"geo {result.mean(label, geometric=True):.3f}"
        )
    result.rendering = format_table(
        "Fig. 4 — Execution time normalized to baseline (lower is better)",
        metrics.order_workloads(workloads),
        series,
        footer=footer,
    )
    return result


# ----------------------------------------------------------------------
# Fig. 5 — aborts split by cause.
# ----------------------------------------------------------------------
def fig5(workloads: Optional[Tuple[str, ...]] = None) -> FigureResult:
    exp = get_experiment("fig5")
    workloads = workloads or exp.workloads
    runs = _system_runs("fig5", workloads)
    base = runs[paper.BASELINE]
    series = {
        s.label: metrics.normalized_aborts(runs[s], base)
        for s in paper_systems()
    }
    stacks: Dict[str, Dict[str, Dict[str, float]]] = {}
    for s in paper_systems():
        stacks[s.label] = {
            w: {
                reason: count
                for reason, count in r.stats.abort_breakdown().items()
                if count
            }
            for w, r in runs[s].items()
        }
    result = FigureResult(
        "fig5", exp.title, series, extra={"stacks": stacks, "runs": runs}
    )
    chats_mean = result.mean(paper.CHATS.label)
    rendering = [
        format_table(
            "Fig. 5 — Aborted transactions normalized to baseline",
            metrics.order_workloads(workloads),
            series,
            footer={
                "STAMP mean (CHATS)": f"{chats_mean:.3f} "
                f"(paper: ~0.66, a 34% reduction)"
            },
        ),
        "",
        format_stacked(
            "Fig. 5 (detail) — abort counts split by cause",
            metrics.order_workloads(workloads),
            stacks,
        ),
    ]
    result.rendering = "\n".join(rendering)
    return result


# ----------------------------------------------------------------------
# Fig. 6 — conflicted/forwarding transactions by outcome.
# ----------------------------------------------------------------------
def fig6(workloads: Optional[Tuple[str, ...]] = None) -> FigureResult:
    exp = get_experiment("fig6")
    workloads = workloads or exp.workloads
    runs = _system_runs("fig6", workloads)
    stacks: Dict[str, Dict[str, Dict[str, float]]] = {}
    survival: Dict[str, Dict[str, float]] = {}
    for s in exp.systems:
        label = s.label
        stacks[label] = {}
        survival[label] = {}
        for w, r in runs[s].items():
            st = r.stats
            stacks[label][w] = {
                "conflicted-committed": st.conflicted_committed,
                "conflicted-aborted": st.conflicted_aborted,
                "forwarder-committed": st.forwarder_committed,
                "forwarder-aborted": st.forwarder_aborted,
                "consumer-committed": st.consumer_committed,
                "consumer-aborted": st.consumer_aborted,
            }
            fwd_total = st.forwarder_committed + st.forwarder_aborted
            survival[label][w] = (
                st.forwarder_committed / fwd_total if fwd_total else 1.0
            )
    result = FigureResult(
        "fig6",
        exp.title,
        survival,
        extra={"stacks": stacks, "runs": runs},
    )
    result.rendering = "\n".join(
        [
            format_table(
                "Fig. 6 (summary) — fraction of forwarder transactions that "
                "commit",
                metrics.order_workloads(workloads),
                survival,
            ),
            "",
            format_stacked(
                "Fig. 6 (detail) — conflicted/forwarding transactions by "
                "outcome",
                metrics.order_workloads(workloads),
                stacks,
            ),
        ]
    )
    return result


# ----------------------------------------------------------------------
# Fig. 7 — normalized network flits.
# ----------------------------------------------------------------------
def fig7(workloads: Optional[Tuple[str, ...]] = None) -> FigureResult:
    exp = get_experiment("fig7")
    workloads = workloads or exp.workloads
    runs = _system_runs("fig7", workloads)
    base = runs[paper.BASELINE]
    series = {
        s.label: metrics.normalized_flits(runs[s], base)
        for s in paper_systems()
    }
    result = FigureResult("fig7", exp.title, series, extra={"runs": runs})
    result.rendering = format_table(
        "Fig. 7 — Interconnect flits normalized to baseline",
        metrics.order_workloads(workloads),
        series,
        footer={
            "STAMP mean (CHATS)": f"{result.mean('CHATS'):.3f}",
            "STAMP mean (Naive R-S)": f"{result.mean('Naive R-S'):.3f}",
        },
    )
    return result


# ----------------------------------------------------------------------
# Fig. 8 — forwardable block classes.
# ----------------------------------------------------------------------
def fig8(workloads: Optional[Tuple[str, ...]] = None) -> FigureResult:
    exp = get_experiment("fig8")
    workloads = workloads or exp.workloads
    sweep = _runs("fig8", workloads)
    series: Dict[str, Dict[str, float]] = {}
    raw: Dict[str, Dict[str, SimulationResult]] = {}
    for system in exp.systems:
        # Reference: R/W (Fig. 8 normalizes to CHATS with R/W).
        reference = sweep[system, ForwardClass.RW]
        for fc in FORWARD_CLASS_SWEEP:
            runs = sweep[system, fc]
            label = f"{system.label} {fc.value}"
            series[label] = metrics.normalized_times(runs, reference)
            raw[label] = runs
    result = FigureResult("fig8", exp.title, series, extra={"runs": raw})
    chats_best = min(
        (sum(series[f"CHATS {fc.value}"].values()), fc.value)
        for fc in FORWARD_CLASS_SWEEP
    )[1]
    result.rendering = format_table(
        "Fig. 8 — Forwardable-block classes (normalized to R/W)",
        metrics.order_workloads(workloads),
        series,
        footer={"best CHATS class": chats_best},
    )
    return result


# ----------------------------------------------------------------------
# Fig. 9 — retry threshold sweep.
# ----------------------------------------------------------------------
def fig9(
    workloads: Optional[Tuple[str, ...]] = None,
    retries: Tuple[int, ...] = RETRY_SWEEP,
) -> FigureResult:
    exp = get_experiment("fig9")
    workloads = workloads or exp.workloads
    sweep = _runs("fig9", workloads, retries=retries)
    series: Dict[str, Dict[str, float]] = {}
    best: Dict[str, int] = {}
    for system in exp.systems:
        per_retry_mean: Dict[int, float] = {}
        for n in retries:
            runs = sweep[system, n]
            label = f"{system.label} r={n}"
            cycles = {w: float(r.cycles) for w, r in runs.items()}
            series[label] = cycles
            per_retry_mean[n] = sum(cycles.values()) / len(cycles)
        best[system.label] = min(per_retry_mean, key=per_retry_mean.get)
    # Normalise each workload row to its own minimum across the sweep so
    # sweet spots are visible regardless of absolute magnitudes.
    normalized: Dict[str, Dict[str, float]] = {}
    mins: Dict[str, float] = {}
    for w in workloads:
        mins[w] = min(series[label][w] for label in series)
    for label in series:
        normalized[label] = {w: series[label][w] / mins[w] for w in workloads}
    result = FigureResult(
        "fig9", exp.title, normalized, extra={"best_retries": best}
    )
    result.rendering = format_table(
        "Fig. 9 — Retry-threshold sweep (per-workload, normalized to the "
        "best cell)",
        metrics.order_workloads(workloads),
        normalized,
        footer={f"best retries ({k})": str(v) for k, v in best.items()},
    )
    return result


# ----------------------------------------------------------------------
# Fig. 10 — VSB size × validation interval.
# ----------------------------------------------------------------------
def fig10(
    workloads: Optional[Tuple[str, ...]] = None,
    *,
    sizes: Tuple[int, ...] = VSB_SIZES,
    intervals: Tuple[int, ...] = VALIDATION_INTERVALS,
) -> FigureResult:
    exp = get_experiment("fig10")
    workloads = workloads or exp.workloads
    sweep = _runs("fig10", workloads, sizes=sizes, intervals=intervals)
    heat_time: Dict[tuple, float] = {}
    heat_aborts: Dict[tuple, float] = {}
    renderings: List[str] = []
    raw = {}
    for system in exp.systems:
        # Reference cell: smallest VSB, shortest interval (the paper
        # normalizes to the bottom-left square: 50 cycles / 1 entry).
        for size in sizes:
            for interval in intervals:
                runs = sweep[system, (size, interval)]
                cycles = sum(r.cycles for r in runs.values())
                aborts = sum(r.total_aborts for r in runs.values())
                raw[(system, size, interval)] = runs
                heat_time[(f"{system.label} vsb={size}", interval)] = cycles
                heat_aborts[(f"{system.label} vsb={size}", interval)] = aborts
        ref_time = heat_time[(f"{system.label} vsb={sizes[0]}", 50 if 50 in intervals else intervals[0])]
        ref_aborts = max(
            1.0,
            heat_aborts[(f"{system.label} vsb={sizes[0]}", 50 if 50 in intervals else intervals[0])],
        )
        rows = [f"{system.label} vsb={s}" for s in sizes]
        renderings.append(
            format_heatmap(
                f"Fig. 10 — {system.label}: execution time "
                "(normalized to vsb=1 @ 50 cycles); columns = validation "
                "interval",
                rows,
                list(intervals),
                {k: v / ref_time for k, v in heat_time.items() if k[0] in rows},
            )
        )
        renderings.append(
            format_heatmap(
                f"Fig. 10 — {system.label}: aborts (normalized)",
                rows,
                list(intervals),
                {k: v / ref_aborts for k, v in heat_aborts.items() if k[0] in rows},
            )
        )
    result = FigureResult(
        "fig10",
        exp.title,
        {},
        extra={"time": heat_time, "aborts": heat_aborts, "runs": raw},
    )
    result.rendering = "\n\n".join(renderings)
    return result


# ----------------------------------------------------------------------
# figcap — read-set capacity sensitivity (beyond-paper extension).
# ----------------------------------------------------------------------
def figcap(
    workloads: Optional[Tuple[str, ...]] = None,
    limits: Tuple[int, ...] = CAPACITY_SWEEP,
) -> FigureResult:
    """Sweep ``read_set_limit`` on the capacity-limited systems.

    Two renderings: capacity-abort counts per budget (the headline —
    expected to fall monotonically as the budget grows) and execution
    time normalized to each system's largest budget.
    """
    exp = get_experiment("figcap")
    workloads = workloads or exp.workloads
    sweep = _runs("figcap", workloads, limits=limits)
    cap_series: Dict[str, Dict[str, float]] = {}
    time_series: Dict[str, Dict[str, float]] = {}
    raw: Dict[str, Dict[str, SimulationResult]] = {}
    capacity_by_limit: Dict[str, Dict[int, int]] = {}
    for system in exp.systems:
        reference: Dict[str, SimulationResult] = {}
        capacity_by_limit[system.label] = {}
        for n in limits:
            runs = sweep[system, n]
            label = f"{system.label} rs={n}"
            raw[label] = runs
            cap_series[label] = {
                w: float(r.stats.abort_breakdown().get("capacity", 0))
                for w, r in runs.items()
            }
            capacity_by_limit[system.label][n] = int(
                sum(cap_series[label].values())
            )
            if n == limits[-1]:
                reference = runs
        for n in limits:
            time_series[f"{system.label} rs={n}"] = metrics.normalized_times(
                raw[f"{system.label} rs={n}"], reference
            )
    result = FigureResult(
        "figcap",
        exp.title,
        cap_series,
        extra={
            "time": time_series,
            "capacity_by_limit": capacity_by_limit,
            "runs": raw,
        },
    )
    result.rendering = "\n".join(
        [
            format_table(
                "figcap — capacity aborts per read-set budget",
                metrics.order_workloads(workloads),
                cap_series,
                footer={
                    f"total capacity aborts ({label})": ", ".join(
                        f"rs={n}: {c}" for n, c in by_limit.items()
                    )
                    for label, by_limit in capacity_by_limit.items()
                },
            ),
            "",
            format_table(
                "figcap — execution time normalized to the largest budget",
                metrics.order_workloads(workloads),
                time_series,
            ),
        ]
    )
    return result


# ----------------------------------------------------------------------
# Fig. 11 — comparison with LEVC-BE-Idealized.
# ----------------------------------------------------------------------
def fig11(workloads: Optional[Tuple[str, ...]] = None) -> FigureResult:
    exp = get_experiment("fig11")
    workloads = workloads or exp.workloads
    runs = _system_runs("fig11", workloads)
    base = runs.pop(paper.BASELINE)
    series = {
        s.label: metrics.normalized_times(runs[s], base)
        for s in exp.systems
    }
    result = FigureResult("fig11", exp.title, series, extra={"runs": runs})
    chats = result.mean("CHATS")
    pchats = result.mean("PCHATS")
    levc = result.mean("LEVC-BE-Id")
    result.rendering = format_table(
        "Fig. 11 — Execution time over the baseline: CHATS/PCHATS vs "
        "LEVC-BE-Idealized",
        metrics.order_workloads(workloads),
        series,
        footer={
            "STAMP means": f"CHATS {chats:.3f}, PCHATS {pchats:.3f}, "
            f"LEVC {levc:.3f}",
            "CHATS vs LEVC": f"{(levc - chats) / levc * 100:+.1f}% "
            "(paper: CHATS ~4.6% ahead on average)",
        },
    )
    return result


FIGURES = {
    "fig1": fig1,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "figcap": figcap,
}


#: Schema tag of figure documents persisted through the result store.
FIGURE_DOC_SCHEMA = "repro-figure/1"


def _figure_doc_key(figure_id: str, kwargs: Dict[str, object]) -> str:
    """Store key for a cached figure document.

    Covers the code fingerprint plus every runner knob that shapes the
    sweep (threads/seed/scale) and the call kwargs, so any change that
    would alter the figure invalidates the document.
    """
    import hashlib
    import json

    from . import runner

    blob = json.dumps(
        {
            "schema": FIGURE_DOC_SCHEMA,
            "fingerprint": runner._code_fingerprint(),
            "figure": figure_id,
            "threads": runner.bench_threads(),
            "seed": runner.bench_seed(),
            "scale": runner.bench_scale(),
            "kwargs": {k: kwargs[k] for k in sorted(kwargs)},
        },
        sort_keys=True,
        default=list,
    )
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return f"figure/{figure_id}/{digest}"


def _figure_from_doc(doc: Dict[str, object]) -> FigureResult:
    return FigureResult(
        experiment_id=doc["experiment_id"],
        title=doc["title"],
        series=doc["series"],
        extra={},
        rendering=doc["rendering"],
    )


def run_figure(figure_id: str, **kwargs) -> FigureResult:
    """Run one figure by id (``fig1`` ... ``fig11``).

    When the disk cache is enabled the assembled figure document
    (series + rendering, not the raw runs) is persisted through the
    result store under ``figure/<id>/<sha256>``; a later call with the
    same code fingerprint and parameters is served from the store
    without touching the simulator.  Store hits return an empty
    ``extra`` dict — raw :class:`SimulationResult` objects are not
    serialised.
    """
    try:
        fn = FIGURES[figure_id]
    except KeyError:
        raise KeyError(
            f"unknown figure {figure_id!r}; known: {sorted(FIGURES)}"
        ) from None

    from . import runner

    store = runner.result_store() if runner.disk_cache_enabled() else None
    if store is not None:
        key = _figure_doc_key(figure_id, kwargs)
        hit = store.load(key, FIGURE_DOC_SCHEMA, _figure_from_doc)
        if hit is not None:
            return hit
    result = fn(**kwargs)
    if store is not None:
        store.save(
            key,
            {
                "schema": FIGURE_DOC_SCHEMA,
                "experiment_id": result.experiment_id,
                "title": result.title,
                "series": result.series,
                "rendering": result.rendering,
            },
        )
    return result
