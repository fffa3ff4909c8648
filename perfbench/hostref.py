"""Host-speed reference: a fixed pure-Python kernel timed beside every sample.

On a shared host the speed of a CPU second drifts: other tenants slow
everything by up to half for tens of seconds to minutes at a time, long
enough to cover a whole run.  No statistic over one run's samples removes
that.  So every timed sample is bracketed by two runs of ``kernel`` — a
small discrete-event loop (heap, slotted objects, dict updates, method
dispatch) like the simulator's, but frozen here and independent of the
program — and is scaled by ``NOMINAL_S`` over the mean of those two
kernel times.  A normalised time reads as seconds on a host running the
kernel in ``NOMINAL_S``; a change to the program moves it, a slow phase
of the host does not.

The kernel's CPU time, not its wall time, sets the scale of wall and CPU
samples alike: a kernel run that is descheduled for a moment reads twice
as long on the wall clock and would halve its neighbours' samples, while
its CPU time only shows how fast the CPU ran.  And the kernel must run on
the CPU that runs the samples: the vCPUs of a shared host differ in speed
by about a tenth either way from one kernel run to the next.  So a
benchmark run calls ``pin_to_one_cpu`` first.
"""

from __future__ import annotations

import heapq
import os
import random
import time
from typing import Callable, List, Optional, Tuple, TypeVar

T = TypeVar("T")

# The kernel's typical time on a quiet 2-vCPU Xeon VM (Python 3.11).
NOMINAL_S = 0.0625
# What ``kernel()`` returns; anything else means the interpreter misbehaves.
CHECKSUM = 223865


class _Node:
    __slots__ = ("ident", "state", "peers", "handled")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.state = 0
        self.peers: List["_Node"] = []
        self.handled = 0

    def handle(self, kind: int, now: int, table: dict) -> Tuple["_Node", int]:
        self.handled += 1
        key = (self.ident * 31 + kind) & 0xFFFF
        seen = table.get(key, 0)
        table[key] = seen + 1
        self.state = (self.state + seen + kind) & 7
        return self.peers[self.state & 3], now + 1 + (seen & 3)


def kernel(events: int = 60_000) -> int:
    """Run the fixed event loop; returns a checksum of its end state."""
    rng = random.Random(7)
    nodes = [_Node(i) for i in range(256)]
    for node in nodes:
        node.peers = [nodes[rng.randrange(256)] for _ in range(4)]
    table: dict = {}
    queue = [(rng.randrange(100), i, nodes[i], i & 3) for i in range(256)]
    heapq.heapify(queue)
    seq = len(queue)
    now = 0
    for _ in range(events):
        now, _seq, node, kind = heapq.heappop(queue)
        peer, due = node.handle(kind, now, table)
        seq += 1
        heapq.heappush(queue, (due, seq, peer, (kind + 1) & 3))
    return now * 7 + sum(node.state * node.handled for node in nodes) + len(table)


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts from now on, on one
    CPU, so the reference times the CPU that runs every sample."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostRef:
    """Chains kernel runs between samples: kernel, sample, kernel, sample, ...

    Each sample shares its bracketing kernel runs with its neighbours, so
    the reference costs one kernel run per sample."""

    def __init__(self) -> None:
        self.runs: List[float] = []  # kernel CPU seconds per run
        self._last: Optional[float] = None
        self.run()  # warm-up: the first run in a process is slower
        self.runs.clear()

    def run(self) -> float:
        c0 = time.process_time()
        got = kernel()
        cpu = time.process_time() - c0
        if got != CHECKSUM:
            raise RuntimeError(f"host reference kernel returned {got}, not {CHECKSUM}")
        self.runs.append(cpu)
        return cpu

    def bracket(self, fn: Callable[[], T]) -> Tuple[T, float]:
        """``fn()`` and the factor that normalises its times: ``NOMINAL_S``
        over the mean of the kernel runs just before and after it."""
        before = self._last if self._last is not None else self.run()
        self._last = None
        value = fn()
        after = self._last = self.run()
        return value, 2 * NOMINAL_S / (before + after)

    def slowdown(self) -> float:
        """Median kernel CPU time over ``NOMINAL_S``: how slow the host ran."""
        cpus = sorted(self.runs)
        return cpus[len(cpus) // 2] / NOMINAL_S if cpus else float("nan")
