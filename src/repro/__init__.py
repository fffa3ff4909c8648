"""repro — a full Python reproduction of *Chaining Transactions for
Effective Concurrency Management in Hardware Transactional Memory*
(CHATS, MICRO 2024).

The package contains an event-driven multicore simulator (cores, MESI
directory coherence, L1 caches with speculative versioning, a crossbar
interconnect), a registry of best-effort HTM systems, each naming its
conflict policy (the paper's six — requester-wins baseline,
naive requester-speculates, CHATS, PowerTM, PCHATS, LEVC-BE-Idealized —
plus registry-defined extras), re-implementations of the STAMP benchmarks
plus the paper's two microbenchmarks, and a harness regenerating every
table and figure of the paper's evaluation.

Quickstart::

    from repro import run_workload

    base = run_workload("kmeans-h", system="baseline", scale=0.1)
    chats = run_workload("kmeans-h", system="chats", scale=0.1)
    print(chats.normalized_time(base))  # < 1.0: CHATS is faster

New systems are registered without touching the simulator —
see :mod:`repro.systems` (``register``/``SystemSpec``) and the "Systems
registry" section of ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from typing import Optional

from .obs import TraceEvent, Tracer
from .sim.config import HTMConfig, SystemConfig, table2_config
from .sim.invariants import InvariantViolation, check_invariants, check_quiescent
from .sim.results import SimulationResult
from .sim.simulator import DeadlockError, Simulator, run_simulation
from .systems import (
    ForwardClass,
    SystemSpec,
    UnknownSystemError,
    get_spec,
    paper_systems,
    register,
    registered_systems,
)
from .workloads.base import Workload, make_workload, workload_names
from .workloads.scripted import ScriptedWorkload

# Register all built-in workloads on import.
from .workloads import synth as _synth  # noqa: F401
from .workloads.stamp import register_all as _register_stamp

_register_stamp()

__version__ = "1.0.0"

__all__ = [
    "ForwardClass",
    "HTMConfig",
    "InvariantViolation",
    "ScriptedWorkload",
    "SimulationResult",
    "Simulator",
    "SystemConfig",
    "SystemSpec",
    "TraceEvent",
    "Tracer",
    "DeadlockError",
    "Workload",
    "UnknownSystemError",
    "check_invariants",
    "check_quiescent",
    "get_spec",
    "make_workload",
    "paper_systems",
    "register",
    "registered_systems",
    "run_simulation",
    "run_workload",
    "table2_config",
    "workload_names",
]


def run_workload(
    name: str,
    system: "SystemSpec | str" = "baseline",
    *,
    threads: int = 16,
    seed: int = 1,
    scale: float = 1.0,
    htm: Optional[HTMConfig] = None,
    config: Optional[SystemConfig] = None,
    max_events: int = 80_000_000,
) -> SimulationResult:
    """Run a registered workload under an HTM system and return results.

    This is the primary public entry point: it instantiates the workload,
    builds the machine with the Table II configuration for ``system``
    (unless an explicit ``htm`` overrides it), runs to completion, checks
    the workload's correctness invariants, and returns the
    :class:`SimulationResult`.
    """
    workload = make_workload(name, threads=threads, seed=seed, scale=scale)
    return run_simulation(
        workload, system, htm=htm, config=config, max_events=max_events
    )
