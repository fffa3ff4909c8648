"""Experiment registry: every table and figure of the paper's evaluation.

Each entry records what the paper shows, the workloads and systems
involved, and which bench target regenerates it — the per-experiment index
required by DESIGN.md.  The figure functions themselves live in
:mod:`repro.experiments.figures`.

Every figure also declares its cells up front (:func:`experiment_cells`):
each ``(system, variant, workload)`` cell the figure consumes, paired
with the :class:`~repro.experiments.runner.RunConfig` that computes it.
This is the only enumeration of a figure's simulations: the figure reads
its results from one ``run_many`` batch over these configs, and
``repro report`` batches the union of every figure's
:func:`experiment_configs`, so a multi-seed/multi-system sweep is
wall-clock-bounded by cores instead of configs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple

from ..analysis.metrics import EVALUATION_ORDER
from ..sim.config import table2_config
from ..systems import ForwardClass, SystemSpec, paper, paper_systems
from ..systems.capacity import CAPACITY_SWEEP
from ..systems import capacity as _capacity
from .runner import RunConfig


@dataclass(frozen=True)
class Experiment:
    """One table or figure of the evaluation section."""

    id: str
    title: str
    workloads: Tuple[str, ...]
    systems: Tuple[SystemSpec, ...]
    bench: str
    parameters: str = ""
    expected_shape: str = ""


#: Contention-sensitive subset used by the sensitivity figures (running the
#: flat workloads through parameter sweeps adds cost without information).
SENSITIVE_WORKLOADS = ("genome", "kmeans-h", "kmeans-l", "yada", "llb-h")

EXPERIMENTS: Dict[str, Experiment] = {
    e.id: e
    for e in [
        Experiment(
            id="table1",
            title="System parameters (machine model)",
            workloads=(),
            systems=(),
            bench="benchmarks/bench_table1_config.py",
            expected_shape="16 cores, 48KiB/12-way L1D, MESI directory, "
            "crossbar with 16B flits (5 data / 1 control)",
        ),
        Experiment(
            id="table2",
            title="HTM system configurations",
            workloads=(),
            systems=paper_systems(),
            bench="benchmarks/bench_table2_config.py",
            expected_shape="retries 6/2/32/2/1/64; VSB=4; validation 50 "
            "cycles (0 for LEVC); Rrestrict/W forwarding",
        ),
        Experiment(
            id="fig1",
            title="Naive requester-speculates vs best-effort baseline",
            workloads=EVALUATION_ORDER,
            systems=(paper.BASELINE, paper.NAIVE_RS),
            bench="benchmarks/bench_fig01_naive_rs.py",
            expected_shape="naive R-S brings no benefit: >=1.0 on most "
            "workloads (cyclic dependencies are not managed)",
        ),
        Experiment(
            id="fig4",
            title="Execution time normalised to baseline",
            workloads=EVALUATION_ORDER,
            systems=paper_systems(),
            bench="benchmarks/bench_fig04_exec_time.py",
            expected_shape="CHATS wins on genome/kmeans/yada/llb/cadd, "
            "flat on ssca2/vacation/labyrinth, loses on intruder; PCHATS "
            "best overall; means exclude the microbenchmarks",
        ),
        Experiment(
            id="fig5",
            title="Aborted transactions split by cause",
            workloads=EVALUATION_ORDER,
            systems=paper_systems(),
            bench="benchmarks/bench_fig05_abort_reasons.py",
            expected_shape="CHATS cuts total aborts vs baseline on the "
            "forwarding-friendly workloads (~34% overall in the paper); "
            "new validation/cycle categories appear",
        ),
        Experiment(
            id="fig6",
            title="Conflicting and forwarding transactions by outcome",
            workloads=EVALUATION_ORDER,
            systems=(
                paper.NAIVE_RS,
                paper.CHATS,
                paper.PCHATS,
                paper.LEVC,
            ),
            bench="benchmarks/bench_fig06_forwarding.py",
            expected_shape="under CHATS most *forwarder* transactions "
            "commit (producers survive conflicts)",
        ),
        Experiment(
            id="fig7",
            title="Normalised interconnect flits",
            workloads=EVALUATION_ORDER,
            systems=paper_systems(),
            bench="benchmarks/bench_fig07_network.py",
            expected_shape="CHATS/PCHATS send fewer flits than baseline "
            "despite validation traffic (less wasted work); naive R-S "
            "sends more",
        ),
        Experiment(
            id="fig8",
            title="Forwardable-block classes: R/W vs W vs Rrestrict/W",
            workloads=SENSITIVE_WORKLOADS,
            systems=(paper.CHATS, paper.PCHATS),
            bench="benchmarks/bench_fig08_forward_blocks.py",
            parameters="forward_class in {RW, W, R_RESTRICT_W}",
            expected_shape="Rrestrict/W (the in-flight-GETX heuristic) "
            "is the best configuration on average",
        ),
        Experiment(
            id="fig9",
            title="Retry threshold before the fallback path",
            workloads=SENSITIVE_WORKLOADS,
            systems=(
                paper.BASELINE,
                paper.CHATS,
                paper.POWER,
                paper.PCHATS,
            ),
            bench="benchmarks/bench_fig09_retries.py",
            parameters="retries in {1, 2, 6, 16, 32, 64}",
            expected_shape="best-effort baseline prefers ~6 retries; "
            "CHATS prefers large thresholds (32); Power ~2; PCHATS ~1",
        ),
        Experiment(
            id="fig10",
            title="VSB size x validation interval sensitivity",
            workloads=("kmeans-h", "genome", "llb-h"),
            systems=(paper.CHATS, paper.PCHATS),
            bench="benchmarks/bench_fig10_vsb_sweep.py",
            parameters="vsb_size in {1, 2, 4, 8}; interval in {25, 50, "
            "100, 200}",
            expected_shape="4 VSB entries are within a whisker of 8+ "
            "(the paper: 0.005% off 32 entries) — the sweet spot",
        ),
        Experiment(
            id="figcap",
            title="Read-set capacity sensitivity (beyond-paper extension)",
            workloads=("genome", "vacation", "llb-l"),
            systems=(_capacity.CAP_BE, _capacity.CAP_CHATS),
            bench="benchmarks/bench_figcap_capacity.py",
            parameters=f"read_set_limit in {CAPACITY_SWEEP}",
            expected_shape="capacity aborts fall monotonically as the "
            "read-set budget grows; the largest budget behaves like the "
            "paper's unbounded signatures",
        ),
        Experiment(
            id="fig11",
            title="CHATS and PCHATS vs LEVC-BE-Idealized",
            workloads=EVALUATION_ORDER,
            systems=(paper.CHATS, paper.PCHATS, paper.LEVC),
            bench="benchmarks/bench_fig11_levc.py",
            expected_shape="CHATS beats LEVC on kmeans-h; LEVC beats "
            "CHATS on yada (stalling helps its long transactions); "
            "PCHATS beats LEVC on yada too",
        ),
    ]
}


def get_experiment(exp_id: str) -> Experiment:
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None


# ----------------------------------------------------------------------
# Per-figure configuration sets (consumed by the parallel runner).
# ----------------------------------------------------------------------
#: Parameter sweeps of the sensitivity figures (Figs. 8-10).
FORWARD_CLASS_SWEEP = (
    ForwardClass.RW,
    ForwardClass.W,
    ForwardClass.R_RESTRICT_W,
)
RETRY_SWEEP = (1, 2, 6, 16, 32, 64)
VSB_SIZES = (1, 2, 4, 8)
VALIDATION_INTERVALS = (25, 50, 100, 200)


#: One figure cell: ``(system, variant, workload)``, where ``variant`` is
#: the swept parameter value (``None`` for the plain system sweeps).
Cell = Tuple[SystemSpec, Hashable, str]
CellConfigs = Iterator[Tuple[Cell, RunConfig]]


def _cells(systems, workloads, variants=(None,), vary=None) -> CellConfigs:
    """Every cell of ``systems`` x ``variants`` x ``workloads``, in that
    nesting order; ``vary(table, variant)`` derives a variant's HTM
    configuration from the system's Table II row."""
    for system in systems:
        table = table2_config(system)
        for variant in variants:
            htm = table if vary is None else vary(table, variant)
            for w in workloads:
                yield (system, variant, w), RunConfig.make(w, system, htm=htm)


def _own_systems_cells(exp, workloads) -> CellConfigs:
    return _cells(exp.systems, workloads)


def _main_sweep_cells(exp, workloads) -> CellConfigs:
    return _cells(paper_systems(), workloads)


def _fig8_cells(exp, workloads) -> CellConfigs:
    return _cells(
        exp.systems, workloads, FORWARD_CLASS_SWEEP,
        lambda table, fc: table.replace(forward_class=fc),
    )


def _fig9_cells(
    exp, workloads, retries: Tuple[int, ...] = RETRY_SWEEP
) -> CellConfigs:
    return _cells(
        exp.systems, workloads, retries,
        lambda table, n: table.replace(retries=n),
    )


def _fig10_cells(
    exp,
    workloads,
    sizes: Tuple[int, ...] = VSB_SIZES,
    intervals: Tuple[int, ...] = VALIDATION_INTERVALS,
) -> CellConfigs:
    return _cells(
        exp.systems, workloads,
        [(size, interval) for size in sizes for interval in intervals],
        lambda table, v: table.replace(
            vsb_size=v[0], validation_interval=v[1]
        ),
    )


def _figcap_cells(
    exp, workloads, limits: Tuple[int, ...] = CAPACITY_SWEEP
) -> CellConfigs:
    return _cells(
        exp.systems, workloads, limits,
        lambda table, n: table.replace(read_set_limit=n),
    )


def _fig11_cells(exp, workloads) -> CellConfigs:
    return _cells((paper.BASELINE,) + tuple(exp.systems), workloads)


_CELL_BUILDERS: Dict[str, Callable[..., CellConfigs]] = {
    "fig1": _own_systems_cells,
    "fig4": _main_sweep_cells,
    "fig5": _main_sweep_cells,
    "fig6": _own_systems_cells,
    "fig7": _main_sweep_cells,
    "fig8": _fig8_cells,
    "fig9": _fig9_cells,
    "fig10": _fig10_cells,
    "fig11": _fig11_cells,
    "figcap": _figcap_cells,
}


def experiment_cells(
    exp_id: str,
    workloads: Optional[Tuple[str, ...]] = None,
    **params,
) -> CellConfigs:
    """Every ``(cell, RunConfig)`` pair ``exp_id`` consumes (none for
    tables), system-major, then variant, then workload.

    ``params`` forwards sweep overrides to the sensitivity figures
    (``retries`` for fig9, ``sizes``/``intervals`` for fig10, ``limits``
    for figcap).  Configurations honour the ``REPRO_*`` bench defaults
    at call time, exactly like
    :func:`~repro.experiments.runner.run_cached`.
    """
    exp = get_experiment(exp_id)
    builder = _CELL_BUILDERS.get(exp_id)
    if builder is None:
        return iter(())
    return builder(exp, tuple(workloads or exp.workloads), **params)


def experiment_configs(
    exp_id: str,
    workloads: Optional[Tuple[str, ...]] = None,
    **params,
) -> List[RunConfig]:
    """The configs of :func:`experiment_cells`, in the same order."""
    return [cfg for _, cfg in experiment_cells(exp_id, workloads, **params)]
