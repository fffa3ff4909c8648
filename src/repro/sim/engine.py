"""Discrete-event simulation engine.

A single event queue drives the whole machine.  Events scheduled for the
same cycle fire in FIFO order, which makes every simulation run fully
deterministic for a given workload seed.

Hot-path design (this module is the innermost loop of every experiment):

* One plain list per event.  A queue entry is ``[fn, args]``, and the
  entry is also the opaque handle :meth:`Engine.schedule` returns for
  :meth:`Engine.cancel`.  ``fn is None`` marks an entry that is fired or
  cancelled; firing sets only that.  An entry carries no cycle: every
  entry in the run lane belongs to the current cycle, so the clock is
  set once per populated cycle, when the lane is seeded.
* Calendar-bucket queue.  Future events live in a per-cycle FIFO bucket
  (``dict`` keyed by absolute cycle); the heap orders only the *distinct*
  cycle numbers.  Typical workloads schedule many events per cycle, so
  heap traffic drops from one push+pop per event to one per populated
  cycle.  Bucket append order *is* schedule order, so draining a bucket
  FIFO reproduces the exact deterministic order with zero comparisons
  and no per-event sequence counter.
* Zero-delay fast lane.  ``schedule(0, ...)`` appends straight to the
  current cycle's run list.  Same-cycle events scheduled *while the cycle
  executes* always follow the bucket entries that matured at that cycle
  (the bucket was sealed when the cycle began), so lane order stays
  exact.
* Next-cycle fast lane.  ``delay == 1`` dominates real machines (link
  and L1 hit latencies are one cycle), so those events go to a dedicated
  ``_next`` list and never touch the bucket dict or the heap.  Order is
  preserved because a bucket for cycle ``T+1`` can only receive entries
  *before* cycle ``T`` runs (a delay-1 schedule during ``T`` goes to
  ``_next``, anything longer lands past ``T+1``), so draining the bucket
  first and ``_next`` second is exactly global schedule order.
* A swapped run lane.  The lane is a plain list that ``run`` walks with
  one list iterator, so firing an event is one iterator step, and a
  zero-delay entry appended while the lane is walked is reached in
  order.  At a cycle boundary nothing is copied: when only ``_next`` is
  due, it becomes the lane and the drained lane, emptied, becomes
  ``_next``; when a bucket is due, ``_next`` (if due too) is appended to
  the bucket, which becomes the lane.
* Cancelled entries are dropped lazily when their cycle drains, and the
  buckets and ``_next`` are compacted in place once dead entries
  outnumber live ones, so a workload that arms and cancels millions of
  timers keeps a bounded queue.  Compaction leaves the run lane alone,
  since ``run`` may be walking it; the walk drops its dead entries.  A
  cycle whose entries are all dead does not move the clock.
* No live-event counter: only the dead entries are counted, and
  :meth:`Engine.pending` (a test aid) counts the queue.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional


class Engine:
    """Minimal deterministic discrete-event engine."""

    __slots__ = (
        "_buckets",
        "_cycles",
        "_lane",
        "_lane_iter",
        "_next",
        "_now",
        "_dead",
        "_compact_at",
        "events_processed",
    )

    #: Dead entries tolerated before an in-place compaction (also requires
    #: dead >= live, so lightly-cancelled queues never churn).
    COMPACT_THRESHOLD = 64

    def __init__(self) -> None:
        # Future events: absolute cycle -> FIFO list of entries, plus a
        # heap of the distinct cycle keys.  A key is pushed exactly once,
        # when its bucket is created, and popped when the clock reaches it.
        self._buckets: Dict[int, List[list]] = {}
        self._cycles: List[int] = []
        # Entries runnable at the current cycle, in FIFO order, and the
        # iterator that walks them: ``run``'s while it runs, a fresh one
        # otherwise.  Its length hint is the number of entries not yet
        # reached.
        self._lane: List[list] = []
        self._lane_iter = iter(self._lane)
        # Entries for cycle ``_now + 1`` (the dominant delay), bypassing
        # the bucket dict and the cycle heap entirely.
        self._next: List[list] = []
        self._now = 0
        self._dead = 0
        # The dead count that triggers the next compaction: the threshold,
        # plus the dead entries the last compaction had to leave in the
        # lane (reset when the lane is next reseeded).
        self._compact_at = self.COMPACT_THRESHOLD
        self.events_processed = 0

    @property
    def now(self) -> int:
        """Current simulated cycle."""
        return self._now

    def schedule(self, delay: int, fn: Callable, *args: Any) -> list:
        """Run ``fn(*args)`` after ``delay`` cycles; returns the opaque
        handle :meth:`cancel` takes.  ``fn`` must not be None (None is
        the engine's fired-or-cancelled mark)."""
        entry = [fn, args]
        if delay == 1:
            self._next.append(entry)
        elif delay:
            if delay < 0:
                raise ValueError("cannot schedule into the past")
            when = self._now + delay
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [entry]
                heapq.heappush(self._cycles, when)
            else:
                bucket.append(entry)
        else:
            self._lane.append(entry)
        return entry

    def cancel(self, handle: list) -> None:
        """Mark a scheduled entry dead in place (it is discarded lazily or
        by compaction).  Cancelling a fired or cancelled entry is a
        no-op."""
        if handle[0] is None:
            return
        handle[0] = None
        handle[1] = ()
        dead = self._dead + 1
        self._dead = dead
        if dead >= self._compact_at and dead + dead >= self._queued():
            self._compact()

    # ------------------------------------------------------------------
    def _has_live(self, until: Optional[int]) -> bool:
        """Whether a live entry is queued past the lane at or before
        ``until`` (a bounded run's budget check; off the hot path)."""
        queued = [(self._now + 1, self._next), *self._buckets.items()]
        return any(
            (until is None or cycle <= until)
            and any(entry[0] is not None for entry in entries)
            for cycle, entries in queued
        )

    def run(self, *, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the queue.

        ``until`` bounds simulated time; ``max_events`` bounds host work
        (a deadlock/livelock backstop for tests).  Returns the final cycle.

        Contract for bounded runs: after ``run(until=N)`` the clock reads
        ``N`` (unless it was already past ``N``) even when the queue
        drained early, so back-to-back bounded runs observe a consistent,
        monotonic clock.  An event that would exceed ``max_events`` stays
        queued with the rest of its cycle, in order, and the error names
        the cycle of the last event fired.
        """
        if until is not None and until < self._now:
            return self._now
        # ``_compact`` mutates ``_next`` and the buckets in place, and only
        # this loop rebinds the lane and ``_next``, so the local bindings
        # stay valid when a callback triggers it.
        lane = self._lane
        it = self._lane_iter = iter(lane)
        nxt = self._next
        cycles = self._cycles
        buckets = self._buckets
        heappop = heapq.heappop
        # ``processed`` counts up from 0, so -1 never trips the budget.
        limit = -1 if max_events is None else max(max_events, 0)
        processed = 0
        # Entries the iterator reached that stay queued: the one an
        # exhausted budget stops at.
        kept = 0
        try:
            while True:
                for entry in it:
                    fn = entry[0]
                    if fn is None:
                        self._dead -= 1
                        continue
                    if processed == limit:
                        kept = 1
                        raise self._livelock(max_events)
                    entry[0] = None
                    processed += 1
                    fn(*entry[1])
                # The cycle drained: an exhausted budget stops the run
                # here, before the clock moves, if anything is left to fire.
                if processed == limit and self._has_live(until):
                    raise self._livelock(max_events)
                # Seed the lane with the next populated cycle's entries,
                # and stop when there is none (or it lies beyond
                # ``until``).  Invariant: every ``_next`` entry matures at
                # exactly ``_now + 1`` (entries are appended only while
                # the current cycle fires, and the clock cannot move
                # before the lane drains), so the bucket for that cycle —
                # sealed strictly earlier — fires first and ``_next``
                # second, preserving global schedule order.
                target = self._now + 1
                if cycles:
                    cycle = cycles[0]
                    if nxt and target < cycle:
                        cycle = target
                elif nxt:
                    cycle = target
                else:
                    break
                if until is not None and cycle > until:
                    break
                if cycles and cycles[0] == cycle:
                    heappop(cycles)
                    lane = buckets.pop(cycle)
                    if nxt and cycle == target:
                        lane.extend(nxt)
                        nxt.clear()
                else:
                    lane.clear()
                    lane, nxt = nxt, lane
                    self._next = nxt
                self._lane = lane
                it = self._lane_iter = iter(lane)
                # A cycle left with no live entry (all cancelled, or
                # emptied by compaction) is walked without moving the
                # clock, so the clock always reads the cycle of the last
                # event that fired.
                if not self._dead:
                    self._now = cycle
                    continue
                # The lane a compaction had to leave alone is drained.
                self._compact_at = self.COMPACT_THRESHOLD
                for entry in lane:
                    if entry[0] is not None:
                        self._now = cycle
                        break
        finally:
            self.events_processed += processed
            # The iterator reached these: fired entries, and dead ones
            # already uncounted.
            del lane[: len(lane) - it.__length_hint__() - kept]
            self._lane_iter = iter(lane)
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def _livelock(self, max_events: int) -> RuntimeError:
        return RuntimeError(
            f"engine exceeded {max_events} events at cycle {self._now}; "
            "likely livelock in the simulated machine"
        )

    def pending(self) -> int:
        """Number of live (non-cancelled) queued events."""
        return self._queued() - self._dead

    # ------------------------------------------------------------------
    def _queued(self) -> int:
        """Every queued entry, live or dead: the lane's entries not yet
        reached, ``_next`` and the buckets."""
        return (
            self._lane_iter.__length_hint__()
            + len(self._next)
            + sum(map(len, self._buckets.values()))
        )

    def _compact(self) -> None:
        """Drop cancelled entries from ``_next`` and the buckets, in place
        (``run`` holds aliases to the containers), preserving the
        deterministic order.

        The run lane is left alone: ``run`` may be walking it, and drops
        its dead entries as it reaches them.  So ``_dead`` loses only what
        was removed here, and the next compaction waits for
        ``COMPACT_THRESHOLD`` more cancels beyond the dead entries left in
        the lane; otherwise every later cancel would compact again.
        Emptied buckets stay registered (their cycle key is already in the
        heap); ``run`` drains them without moving the clock.
        """
        removed = 0
        for entries in (self._next, *self._buckets.values()):
            live = [entry for entry in entries if entry[0] is not None]
            removed += len(entries) - len(live)
            entries[:] = live
        self._dead -= removed
        self._compact_at = self._dead + self.COMPACT_THRESHOLD
