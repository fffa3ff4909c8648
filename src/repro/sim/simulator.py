"""Top-level simulator: wires the machine together and runs a workload."""

from __future__ import annotations

import itertools
from typing import List, Optional

from ..htm.fallback import FallbackLock, OwnershipTable
from ..htm.power import PowerTokenManager
from ..htm.stats import HTMStats
from ..mem.directory import Directory
from ..mem.l1controller import L1Controller
from ..mem.memory import MainMemory
from ..net.network import Crossbar
from ..obs.interval import IntervalMetrics
from ..obs.probe import Probe
from ..systems.conflict import make_policy
from ..systems.spec import SystemSpec
from .config import HTMConfig, SystemConfig, table2_config
from .core import Core
from .engine import Engine
from .results import SimulationResult


class DeadlockError(RuntimeError):
    """The event queue drained while threads were still unfinished."""


class Simulator:
    """One simulated machine executing one workload under one HTM system."""

    def __init__(
        self,
        workload,
        htm: Optional[HTMConfig] = None,
        config: Optional[SystemConfig] = None,
    ):
        self.workload = workload
        self.htm = htm if htm is not None else table2_config("baseline")
        self.config = config if config is not None else SystemConfig()
        if workload.num_threads > self.config.num_cores:
            raise ValueError(
                f"workload wants {workload.num_threads} threads but the "
                f"machine has {self.config.num_cores} cores"
            )

        self.engine = Engine()
        #: Instrumentation bus: subscribers see every probe event of this
        #: simulator (and only this one); inert while nobody listens.
        self.probe = Probe()
        self.memory = MainMemory(workload.space.geometry)
        self.network = Crossbar(self.engine, self.config, probe=self.probe)
        self.directory = Directory(
            self.engine, self.config, self.memory, self.network,
            probe=self.probe,
        )
        self.policy = make_policy(self.htm)
        self.power = PowerTokenManager()
        self.stats = HTMStats()
        self.lock = FallbackLock(workload.space)
        lock_block = workload.space.geometry.block_of(self.lock.addr)
        # Hybrid-fallback systems get per-block ownership records; every
        # other system keeps ``None`` here so the L1/core hot paths carry
        # no new work (the golden digests pin this).
        self.orecs: Optional[OwnershipTable] = (
            OwnershipTable() if self.htm.system.fallback == "hybrid" else None
        )

        # One L1 and one core per workload thread: a core that runs no
        # thread never sends or receives a message, so the machine's idle
        # cores are not built (``num_cores`` bounds the thread count).
        self.l1s: List[L1Controller] = [
            L1Controller(
                core_id=i,
                engine=self.engine,
                config=self.config,
                htm=self.htm,
                geometry=workload.space.geometry,
                memory=self.memory,
                network=self.network,
                policy=self.policy,
                stats=self.stats,
                lock_block=lock_block,
                probe=self.probe,
                orecs=self.orecs,
            )
            for i in range(workload.num_threads)
        ]
        self.cores: List[Core] = [
            Core(i, self) for i in range(workload.num_threads)
        ]
        for l1, core in zip(self.l1s, self.cores):
            l1.core = core

        # Delivery tables indexed by ``msg.dst``, then ``kind.idx``: cores
        # at 0..N-1 and the directory (dst == DIRECTORY == -1) last.
        self.network.connect(
            [l1._handlers for l1 in self.l1s] + [self.directory._handlers]
        )

        self._timestamps = itertools.count(1)
        self._finished = 0
        self._started = 0

        workload.setup(self.memory)

    # ------------------------------------------------------------------
    def next_timestamp(self) -> int:
        """Ideal, never-rolling-over begin timestamps (Section VI-B) —
        drawn only by systems whose spec orders transactions by age."""
        return next(self._timestamps)

    def core_finished(self, core_id: int) -> None:
        self._finished += 1

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        max_events: int = 80_000_000,
        metrics_window: Optional[int] = None,
    ) -> SimulationResult:
        """Execute the workload to completion and collect results.

        ``metrics_window`` (cycles) attaches an
        :class:`~repro.obs.interval.IntervalMetrics` subscriber for the
        duration of the run and serializes its time series into the
        result (``result.intervals``); ``None`` keeps the bus silent.
        """
        collector: Optional[IntervalMetrics] = None
        if metrics_window is not None:
            collector = IntervalMetrics(window=metrics_window)
            self.probe.subscribe(collector)
        for tid in range(self.workload.num_threads):
            self.cores[tid].start(self.workload.thread_body(tid))
            self._started += 1
        try:
            cycles = self.engine.run(max_events=max_events)
        finally:
            if collector is not None:
                self.probe.unsubscribe(collector)
        if self._finished != self._started:
            stuck = [c.core_id for c in self.cores if not c.done]
            raise DeadlockError(
                f"simulation wedged at cycle {cycles}: threads {stuck} never "
                f"finished (lock={self.memory.read_word(self.lock.addr)}, "
                f"power_holder={self.power.holder})"
            )
        self.workload.verify(self.memory)
        return SimulationResult(
            workload=self.workload.name,
            system=self.htm.system.name,
            cycles=cycles,
            stats=self.stats,
            network=self.network.stats(),
            directory={
                "requests": self.directory.requests,
                "forwards": self.directory.forwards,
                "inv_rounds": self.directory.inv_rounds,
                "memory_fetches": self.directory.memory_fetches,
            },
            lock_acquisitions=self.lock.acquisitions,
            power_grants=self.power.grants,
            events=self.engine.events_processed,
            intervals=collector.to_dict() if collector is not None else None,
        )


def run_simulation(
    workload,
    system: SystemSpec | str = "baseline",
    *,
    htm: Optional[HTMConfig] = None,
    config: Optional[SystemConfig] = None,
    max_events: int = 80_000_000,
    metrics_window: Optional[int] = None,
) -> SimulationResult:
    """Convenience one-shot: build a simulator for ``system`` and run it."""
    htm = htm if htm is not None else table2_config(system)
    return Simulator(workload, htm=htm, config=config).run(
        max_events=max_events, metrics_window=metrics_window
    )
