"""kmeans — clustering with transactional centre updates.

STAMP's kmeans assigns each point to its nearest centre and then, inside a
transaction, adds the point's coordinates into the centre's accumulator
and bumps its population count.  Two tiny auxiliary transactions update
global variables (the convergence delta and the processed-point count).

The centre-update transaction is the contended one: its access pattern is
*migratory* — every thread reads the centre accumulator words, adds, and
writes them, and "every thread memory access pattern is the same when
accessing the centers" (Section VII).  Once a transaction has updated a
dimension it never touches it again, so the modified block can be safely
forwarded to the next thread: the pattern CHATS exploits (roughly 75%
conflict reduction in the paper).

``kmeans-l`` (low contention) uses many centres, ``kmeans-h`` (high
contention) few, following STAMP's low/high input convention.

Distance computation runs on host data (the points are thread-private,
read-only inputs — their cache traffic carries no conflicts) and is
charged as ``Work`` cycles.
"""

from __future__ import annotations

from typing import Generator, List

from ...mem.memory import MainMemory
from ...sim.ops import Txn, Work
from ..base import Workload, register
from ..structures import SimArray, SimCounter


class _KMeansBase(Workload):
    """Shared machinery; flavours fix the centre count."""

    num_centers = 16
    dims = 16

    def __init__(self, *, threads: int = 16, seed: int = 1, scale: float = 1.0):
        super().__init__(threads=threads, seed=seed, scale=scale)
        self.points_per_thread = self.scaled(40)
        # One accumulator array per centre: dims sums + 1 count word,
        # block-aligned so centres never false-share with each other.
        self.centers: List[SimArray] = [
            SimArray(self.space, self.dims + 1, name=f"center{c}")
            for c in range(self.num_centers)
        ]
        self.global_delta = SimCounter(self.space, name="kmeans-delta")
        self.global_count = SimCounter(self.space, name="kmeans-count")
        # Points are host-side read-only input data.
        self.points: List[List[List[int]]] = [
            [
                [self.rng.randrange(100) for _ in range(self.dims)]
                for _ in range(self.points_per_thread)
            ]
            for _ in range(threads)
        ]
        # Pre-computed nearest-centre assignment (deterministic: uses the
        # initial centre positions, which are simply spread on a lattice).
        self.assignment: List[List[int]] = [
            [self._nearest(p) for p in thread_points]
            for thread_points in self.points
        ]

    def _nearest(self, point: List[int]) -> int:
        # Initial centres at lattice positions c*100/num_centers repeated
        # across dimensions; nearest by squared distance.  Every centre
        # repeats one coordinate ``pos``, so the distance is
        # sum(x*x) - 2*pos*sum(x) + dims*pos*pos, and sum(x*x) is the same
        # for every centre: compare the rest.  Integers, so the first
        # minimum wins exactly as a loop over the full distances would.
        total = sum(point)
        best, best_d = 0, None
        for c in range(self.num_centers):
            pos = (c * 100) // self.num_centers + 50 // self.num_centers
            d = (self.dims * pos - 2 * total) * pos
            if best_d is None or d < best_d:
                best, best_d = c, d
        return best

    def setup(self, memory: MainMemory) -> None:
        for center in self.centers:
            center.init(memory, [0] * (self.dims + 1))
        self.global_delta.init(memory, 0)
        self.global_count.init(memory, 0)

    # -- transactions ----------------------------------------------------
    def _update_center(self, c: int, point: List[int]) -> Generator:
        center = self.centers[c]
        for d, coord in enumerate(point):
            old = yield from center.get(d)
            yield from center.set(d, old + coord)
        count = yield from center.get(self.dims)
        yield from center.set(self.dims, count + 1)
        return c

    def _update_globals(self, processed: int) -> Generator:
        yield from self.global_delta.add(1)
        yield from self.global_count.add(processed)
        return processed

    def thread_body(self, tid: int) -> Generator:
        batch = 0
        for point, c in zip(self.points[tid], self.assignment[tid]):
            # Distance computation on private data.
            yield Work(6 * self.dims)
            yield Txn(self._update_center, (c, point), label="center-update")
            batch += 1
            if batch == 8:
                yield Txn(self._update_globals, (batch,), label="globals")
                batch = 0
        if batch:
            yield Txn(self._update_globals, (batch,), label="globals")

    # -- oracle ----------------------------------------------------------
    def verify(self, memory: MainMemory) -> None:
        total_points = self.num_threads * self.points_per_thread
        counts = [
            memory.read_word(c.addr(self.dims)) for c in self.centers
        ]
        if sum(counts) != total_points:
            raise AssertionError(
                f"centre population {sum(counts)} != points {total_points}"
            )
        for d in range(self.dims):
            expected = sum(
                p[d] for pts in self.points for p in pts
            )
            actual = sum(memory.read_word(c.addr(d)) for c in self.centers)
            if actual != expected:
                raise AssertionError(
                    f"dimension {d}: accumulated {actual} != {expected}"
                )
        if memory.read_word(self.global_count.addr) != total_points:
            raise AssertionError("global processed-count mismatch")


@register
class KMeansLow(_KMeansBase):
    """kmeans, low contention (many centres)."""

    name = "kmeans-l"
    num_centers = 32


@register
class KMeansHigh(_KMeansBase):
    """kmeans, high contention (few centres)."""

    name = "kmeans-h"
    num_centers = 6
