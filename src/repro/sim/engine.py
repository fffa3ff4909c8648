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
* Cancelled entries wait in the queue for their cycle, where ``run``
  drops them; the simulator cancels only validation timers, armed at
  most ``validation_interval`` cycles ahead.  Only dead entries are
  counted (no live counter), and a cycle whose entries are all dead does
  not move the clock.
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
        "_next",
        "_now",
        "_dead",
        "events_processed",
    )

    def __init__(self) -> None:
        # Future events: absolute cycle -> FIFO list of entries, plus a
        # heap of the distinct cycle keys.  A key is pushed exactly once,
        # when its bucket is created, and popped when the clock reaches it.
        self._buckets: Dict[int, List[list]] = {}
        self._cycles: List[int] = []
        # Entries runnable at the current cycle, in FIFO order.
        self._lane: List[list] = []
        # Entries for cycle ``_now + 1`` (the dominant delay), bypassing
        # the bucket dict and the cycle heap entirely.
        self._next: List[list] = []
        self._now = 0
        self._dead = 0
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
        """Mark a scheduled entry dead in place; ``run`` drops it when its
        cycle drains.  A dead entry waits for its cycle to drain, which
        stays cheap only while cancelled events are near in the future.
        Cancelling a fired or cancelled entry is a no-op."""
        if handle[0] is None:
            return
        handle[0] = None
        handle[1] = ()
        self._dead += 1

    # ------------------------------------------------------------------
    def _has_live(self) -> bool:
        """Whether a live entry waits in ``_next`` or a bucket."""
        return any(
            entry[0] is not None
            for entries in (self._next, *self._buckets.values())
            for entry in entries
        )

    def run(self, *, max_events: Optional[int] = None) -> int:
        """Drain the queue and return the cycle of the last event fired.
        ``max_events`` bounds host work (a livelock backstop): the run
        raises when one more live event would fire, naming the cycle of
        the last event fired.  A run that raised is not resumed."""
        lane = self._lane
        nxt = self._next
        cycles = self._cycles
        buckets = self._buckets
        heappop = heapq.heappop
        # ``processed`` counts up from 0, so -1 never trips the budget.
        limit = -1 if max_events is None else max(max_events, 0)
        processed = 0
        try:
            while True:
                for entry in lane:
                    fn = entry[0]
                    if fn is None:
                        self._dead -= 1
                        continue
                    if processed == limit:
                        raise self._livelock(max_events)
                    entry[0] = None
                    processed += 1
                    fn(*entry[1])
                # The cycle drained: a spent budget stops the run here,
                # before the clock moves, if anything is left to fire.
                if processed == limit and self._has_live():
                    raise self._livelock(max_events)
                # Seed the lane with the next populated cycle, or stop.
                # Every ``_next`` entry matures at ``_now + 1`` (the clock
                # cannot move before the lane drains), so that cycle's
                # bucket fires first and ``_next`` second.
                target = self._now + 1
                if cycles and not (nxt and target < cycles[0]):
                    cycle = heappop(cycles)
                    lane = buckets.pop(cycle)
                    if nxt and cycle == target:
                        lane.extend(nxt)
                        nxt.clear()
                elif nxt:
                    cycle = target
                    lane.clear()
                    lane, nxt = nxt, lane
                    self._next = nxt
                else:
                    lane.clear()
                    break
                self._lane = lane
                # A cycle with no live entry (all cancelled) leaves the
                # clock at the cycle of the last event that fired.
                if not self._dead:
                    self._now = cycle
                    continue
                for entry in lane:
                    if entry[0] is not None:
                        self._now = cycle
                        break
        finally:
            self.events_processed += processed
        return self._now

    def _livelock(self, max_events: int) -> RuntimeError:
        return RuntimeError(
            f"engine exceeded {max_events} events at cycle {self._now}; "
            "likely livelock in the simulated machine"
        )
