"""Synthetic microbenchmarks (Section VI-C) plus a test oracle workload.

* ``llb-l`` / ``llb-h`` — linked-list benchmark: threads traverse a shared
  sorted list, search an element, then modify it.  The low-contention
  flavour gives each thread a private window of 16 keys; the
  high-contention flavour draws 64 keys per thread uniformly over the
  whole list ("all threads are modifying all memory locations randomly").
  Paper parameters: list length 512, 256 iterations per thread.
* ``cadd`` — cluster add: a vector of clusters (queues of integers).
  Every transaction modifies a shared variable and then iterates over a
  whole cluster summing ``element + shared`` — the shared variable is held
  modified for a long time, the conflict pattern CHATS exploits by
  handing out local copies.  Paper parameters: 512 clusters of length 64.
* ``counter`` — not in the paper: a serializability oracle used by the
  test suite.  Threads apply known increments to shared counters; the
  final committed values must equal the sum of increments under *every*
  HTM system.
"""

from __future__ import annotations

from typing import Generator, List

from ..mem.memory import MainMemory
from ..sim.ops import Txn, Work, Write
from .base import Workload, register
from .structures import NodePool, SimArray, SimCounter, SimLinkedList


@register
class CounterWorkload(Workload):
    """Shared-counter increments with an exact serializability oracle."""

    name = "counter"

    def __init__(self, *, threads: int = 16, seed: int = 1, scale: float = 1.0):
        super().__init__(threads=threads, seed=seed, scale=scale)
        self.num_counters = max(1, int(4 * scale)) if scale < 1 else 4
        self.iterations = self.scaled(64)
        self.counters = [
            SimCounter(self.space, name=f"ctr{i}") for i in range(self.num_counters)
        ]
        # Pre-draw the per-thread schedules so every system sees the same
        # logical work.
        self.schedule: List[List[int]] = [
            [self.rng.randrange(self.num_counters) for _ in range(self.iterations)]
            for _ in range(threads)
        ]

    def setup(self, memory: MainMemory) -> None:
        for counter in self.counters:
            counter.init(memory, 0)

    def _increment(self, idx: int) -> Generator:
        # Read early, write late: the counter sits in the read set for a
        # while, creating a real conflict window between the increments.
        counter = self.counters[idx]
        old = yield from counter.get()
        yield Work(40)
        yield Write(counter.addr, old + 1)
        return old + 1

    def thread_body(self, tid: int) -> Generator:
        for idx in self.schedule[tid]:
            yield Txn(self._increment, (idx,), label="increment")
            yield Work(10)

    def expected_totals(self) -> List[int]:
        totals = [0] * self.num_counters
        for sched in self.schedule:
            for idx in sched:
                totals[idx] += 1
        return totals

    def verify(self, memory: MainMemory) -> None:
        expected = self.expected_totals()
        actual = [c.read_host(memory) for c in self.counters]
        if actual != expected:
            raise AssertionError(
                f"counter oracle violated: expected {expected}, got {actual}"
            )


@register
class SynthWorkload(CounterWorkload):
    """Alias of :class:`CounterWorkload` under the name ``synth``.

    The docs and CI use ``synth`` as the canonical tiny smoke workload
    for tracing (``repro trace synth ...``); it is byte-for-byte
    the shared-counter benchmark.
    """

    name = "synth"


class _LinkedListBenchmark(Workload):
    """Common machinery of the llb low/high contention flavours."""

    #: Distinct keys each thread works on; overridden by flavours.
    keys_per_thread = 16
    #: Whether keys are drawn from the whole list (high contention).
    global_keys = False

    def __init__(self, *, threads: int = 16, seed: int = 1, scale: float = 1.0):
        super().__init__(threads=threads, seed=seed, scale=scale)
        # The paper runs lists of length 512 for 256 iterations; the
        # simulator default is scaled to 256/48 so a full six-system sweep
        # stays interactive — pass scale>1 to approach the paper's sizes.
        self.list_length = self.scaled(256, floor=threads * 4)
        self.iterations = self.scaled(48)
        pool = NodePool(
            self.space, self.list_length + 8, 3, threads, name="llb-pool"
        )
        self.list = SimLinkedList(self.space, pool, name="llb")
        self._items = [(k, k * 10) for k in range(1, self.list_length + 1)]
        self.schedule: List[List[int]] = []
        for tid in range(threads):
            if self.global_keys:
                keys = [
                    self.rng.randrange(1, self.list_length + 1)
                    for _ in range(self.iterations)
                ]
            else:
                window = max(
                    1, min(self.keys_per_thread, self.list_length // threads)
                )
                base = 1 + (tid * self.list_length) // threads
                keys = [
                    base + self.rng.randrange(window)
                    for _ in range(self.iterations)
                ]
            self.schedule.append(keys)
        self._expected_writes = {}
        for tid, keys in enumerate(self.schedule):
            for it, key in enumerate(keys):
                # Last writer per key is unknowable (any serialization),
                # so verify only membership of committed values.
                self._expected_writes.setdefault(key, set()).add(
                    self._written_value(tid, it)
                )

    @staticmethod
    def _written_value(tid: int, iteration: int) -> int:
        return 1_000_000 + tid * 10_000 + iteration

    def setup(self, memory: MainMemory) -> None:
        self.list.init(memory, self._items)

    def _search_modify(self, tid: int, iteration: int, key: int) -> Generator:
        found = yield from self.list.update_value(
            key, self._written_value(tid, iteration)
        )
        assert found, f"key {key} must exist in the list"
        yield Work(4)
        return key

    def thread_body(self, tid: int) -> Generator:
        for it, key in enumerate(self.schedule[tid]):
            yield Txn(self._search_modify, (tid, it, key), label="search-modify")
            yield Work(8)

    def verify(self, memory: MainMemory) -> None:
        # Every touched key must hold one of the values some thread wrote;
        # untouched keys keep their initial value.
        node = memory.read_word(self.list.head_addr)
        seen = 0
        while node:
            key = memory.read_word(self.list.pool.field(node, SimLinkedList.KEY))
            value = memory.read_word(
                self.list.pool.field(node, SimLinkedList.VALUE)
            )
            candidates = self._expected_writes.get(key)
            if candidates is None:
                if value != key * 10:
                    raise AssertionError(
                        f"untouched key {key} mutated to {value}"
                    )
            elif value not in candidates:
                raise AssertionError(
                    f"key {key} holds {value}, not among the values written "
                    f"by any transaction"
                )
            seen += 1
            node = memory.read_word(self.list.pool.field(node, SimLinkedList.NEXT))
        if seen != self.list_length:
            raise AssertionError(
                f"list shrank/grew: {seen} nodes vs {self.list_length}"
            )


@register
class LLBLow(_LinkedListBenchmark):
    """llb, low contention: 16 mostly-private keys per thread."""

    name = "llb-l"
    keys_per_thread = 16
    global_keys = False


@register
class LLBHigh(_LinkedListBenchmark):
    """llb, high contention: 64 keys drawn over the whole list."""

    name = "llb-h"
    keys_per_thread = 64
    global_keys = True


@register
class CAdd(Workload):
    """cadd: shared-variable + cluster summation (Section VI-C)."""

    name = "cadd"

    def __init__(self, *, threads: int = 16, seed: int = 1, scale: float = 1.0):
        super().__init__(threads=threads, seed=seed, scale=scale)
        # Paper inputs: 512 clusters of length 64; scaled down by default
        # (same rationale as llb).
        self.num_clusters = self.scaled(128, floor=threads)
        self.cluster_len = self.scaled(16, floor=4)
        self.iterations = self.scaled(24)
        self.shared = SimCounter(self.space, name="cadd-shared")
        self.clusters = [
            SimArray(self.space, self.cluster_len, name=f"cluster{i}")
            for i in range(self.num_clusters)
        ]
        self.sums = SimArray(self.space, threads, name="cadd-sums", padded=True)
        self.schedule: List[List[int]] = [
            [self.rng.randrange(self.num_clusters) for _ in range(self.iterations)]
            for _ in range(threads)
        ]

    def setup(self, memory: MainMemory) -> None:
        self.shared.init(memory, 0)
        for i, cluster in enumerate(self.clusters):
            cluster.init(
                memory, ((i + j) % 97 for j in range(self.cluster_len))
            )
        self.sums.init(memory, [0] * self.num_threads)

    def _cluster_add(self, tid: int, iteration: int, cluster_idx: int) -> Generator:
        # Blindly overwrite the shared variable first, then hold it
        # modified while walking the whole cluster — a long-lived conflict
        # window over final data, the best case for CHATS ("several
        # transactions [can] have local copies of those locations").
        stamp = self._stamp(tid, iteration)
        yield Write(self.shared.addr, stamp)
        total = 0
        cluster = self.clusters[cluster_idx]
        for j in range(self.cluster_len):
            element = yield from cluster.get(j)
            total += element + stamp
            yield Work(1)
        old = yield from self.sums.get(tid)
        yield from self.sums.set(tid, old + total)
        return total

    @staticmethod
    def _stamp(tid: int, iteration: int) -> int:
        return 1 + tid * 1_000 + iteration

    def thread_body(self, tid: int) -> Generator:
        for it, cluster_idx in enumerate(self.schedule[tid]):
            yield Txn(
                self._cluster_add, (tid, it, cluster_idx), label="cluster-add"
            )
            yield Work(6)

    def verify(self, memory: MainMemory) -> None:
        # The shared word must hold one of the stamps some thread wrote.
        final = self.shared.read_host(memory)
        valid = {
            self._stamp(tid, it)
            for tid in range(self.num_threads)
            for it in range(self.iterations)
        }
        if final not in valid:
            raise AssertionError(f"cadd shared word holds foreign value {final}")
        # Per-thread sums depend only on that thread's own stamps and the
        # (constant) cluster contents, so they are exactly predictable.
        for tid in range(self.num_threads):
            expected = 0
            for it, cluster_idx in enumerate(self.schedule[tid]):
                stamp = self._stamp(tid, it)
                expected += sum(
                    (cluster_idx + j) % 97 + stamp
                    for j in range(self.cluster_len)
                )
            actual = memory.read_word(self.sums.addr(tid))
            if actual != expected:
                raise AssertionError(
                    f"thread {tid} sum {actual} != expected {expected}"
                )
