"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Engine


class EngineCase:
    def new_engine(self):
        return Engine()


class TestScheduling(EngineCase):
    def test_events_fire_in_time_order(self):
        engine = self.new_engine()
        fired = []
        engine.schedule(10, fired.append, "b")
        engine.schedule(5, fired.append, "a")
        engine.schedule(20, fired.append, "c")
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        engine = self.new_engine()
        fired = []
        for name in "abcde":
            engine.schedule(7, fired.append, name)
        engine.run()
        assert fired == list("abcde")

    def test_now_advances(self):
        engine = self.new_engine()
        seen = []
        engine.schedule(5, lambda: seen.append(engine.now))
        engine.schedule(9, lambda: seen.append(engine.now))
        final = engine.run()
        assert seen == [5, 9]
        assert final == 9

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError) as exc:
            self.new_engine().schedule(-1, lambda: None)
        assert str(exc.value) == "cannot schedule into the past"

    def test_nested_scheduling(self):
        engine = self.new_engine()
        fired = []

        def outer():
            fired.append(("outer", engine.now))
            engine.schedule(3, inner)

        def inner():
            fired.append(("inner", engine.now))

        engine.schedule(2, outer)
        engine.run()
        assert fired == [("outer", 2), ("inner", 5)]


class TestCancellation(EngineCase):
    def test_cancelled_event_does_not_fire(self):
        engine = self.new_engine()
        fired = []
        token = engine.schedule(5, fired.append, "x")
        engine.cancel(token)
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        engine = self.new_engine()
        token = engine.schedule(5, lambda: None)
        engine.cancel(token)
        engine.cancel(token)
        engine.run()

    def test_pending_counts_live_events_only(self):
        engine = self.new_engine()
        tokens = [engine.schedule(5, lambda: None) for _ in range(3)]
        assert engine.pending() == 3
        engine.cancel(tokens[1])
        assert engine.pending() == 2
        engine.cancel(tokens[0])
        engine.cancel(tokens[2])
        assert engine.pending() == 0

    def test_cancelled_tail_does_not_move_the_clock(self):
        """A cycle left with only cancelled events is drained without
        moving the clock: run() returns the last fired event's cycle."""
        engine = self.new_engine()
        engine.schedule(5, lambda: None)
        engine.cancel(engine.schedule(9, lambda: None))
        engine.cancel(engine.schedule(1, lambda: None))
        assert engine.run() == 5
        assert engine.now == 5
        assert engine.events_processed == 1
        assert engine.pending() == 0


class TestRunBounds(EngineCase):
    def test_until_bound(self):
        engine = self.new_engine()
        fired = []
        engine.schedule(5, fired.append, "early")
        engine.schedule(50, fired.append, "late")
        engine.run(until=10)
        assert fired == ["early"]
        assert engine.pending() == 1

    def test_bounded_run_advances_clock_to_bound(self):
        """Back-to-back bounded runs must observe a consistent clock:
        run(until=N) leaves now == N, not at the last processed event."""
        engine = self.new_engine()
        engine.schedule(5, lambda: None)
        assert engine.run(until=10) == 10
        assert engine.now == 10

    def test_bounded_run_on_drained_queue_advances(self):
        engine = self.new_engine()
        assert engine.run(until=7) == 7
        assert engine.now == 7

    def test_bounded_runs_are_monotonic(self):
        engine = self.new_engine()
        engine.schedule(12, lambda: None)
        engine.run()
        assert engine.now == 12
        # A stale bound must not rewind the clock.
        assert engine.run(until=5) == 12

    def test_back_to_back_bounded_runs_consistent(self):
        engine = self.new_engine()
        seen = []
        engine.schedule(3, lambda: seen.append(engine.now))
        engine.schedule(25, lambda: seen.append(engine.now))
        engine.run(until=10)
        assert engine.now == 10
        engine.schedule(5, lambda: seen.append(engine.now))  # fires at 15
        engine.run(until=20)
        assert engine.now == 20
        engine.run(until=30)
        assert seen == [3, 15, 25]

    def test_cancelled_head_does_not_leak_past_bound(self):
        """A cancelled event before the bound must not let a live event
        beyond the bound fire."""
        engine = self.new_engine()
        fired = []
        token = engine.schedule(5, fired.append, "cancelled")
        engine.schedule(50, fired.append, "late")
        engine.cancel(token)
        engine.run(until=10)
        assert fired == []
        assert engine.pending() == 1

    def test_max_events_raises(self):
        engine = self.new_engine()

        def loop():
            engine.schedule(1, loop)

        engine.schedule(0, loop)
        with pytest.raises(RuntimeError) as exc:
            engine.run(max_events=100)
        assert str(exc.value) == (
            "engine exceeded 100 events at cycle 99; "
            "likely livelock in the simulated machine"
        )

    def test_max_events_keeps_the_next_event_queued(self):
        """The error names the cycle of the last event fired, and the
        event that would have exceeded the budget stays queued."""
        engine = self.new_engine()
        fired = []

        def tick():
            fired.append(engine.now)
            engine.schedule(1, tick)

        engine.schedule(1, tick)
        with pytest.raises(RuntimeError, match="10 events at cycle 10;"):
            engine.run(max_events=10)
        assert engine.events_processed == 10
        assert engine.pending() == 1
        with pytest.raises(RuntimeError, match="2 events at cycle 12;"):
            engine.run(max_events=2)
        assert fired == list(range(1, 13))

    def test_events_processed_counter(self):
        engine = self.new_engine()
        for _ in range(7):
            engine.schedule(1, lambda: None)
        engine.run()
        assert engine.events_processed == 7


def fired_trace(engine, delays):
    """Schedule ``(delay, index)`` markers and return their firing order."""
    out = []
    for i, d in enumerate(delays):
        engine.schedule(d, out.append, (d, i))
    engine.run()
    return out


DELAYS_TO_100 = st.lists(
    st.integers(min_value=0, max_value=100), min_size=1, max_size=40
)
DELAYS_TO_50 = st.lists(
    st.integers(min_value=0, max_value=50), min_size=1, max_size=30
)


class TestDeterminism(EngineCase):
    @given(delays=DELAYS_TO_100)
    def test_same_schedule_same_order(self, delays):
        first = fired_trace(self.new_engine(), delays)
        assert fired_trace(self.new_engine(), delays) == first

    @given(delays=DELAYS_TO_50)
    def test_order_is_stable_sort_by_time(self, delays):
        out = fired_trace(self.new_engine(), delays)
        # Events must be ordered by (time, insertion order).
        assert out == sorted(out, key=lambda pair: (pair[0], pair[1]))


class TestFastLanes(EngineCase):
    """Ordering across the zero-delay, next-cycle, and bucket paths."""

    def test_delay_one_fires_after_same_cycle_bucket_entries(self):
        # An entry scheduled two cycles early (bucket path) must fire
        # before a delay-1 entry for the same cycle (next-lane path):
        # bucket entries are always globally older.
        engine = self.new_engine()
        order = []
        engine.schedule(2, order.append, "bucket")

        def at_cycle_one():
            engine.schedule(1, order.append, "next-lane")

        engine.schedule(1, at_cycle_one)
        engine.run()
        assert order == ["bucket", "next-lane"]

    def test_mixed_delays_interleave_in_schedule_order(self):
        engine = self.new_engine()
        order = []
        # All three paths targeting the same cycle, scheduled from
        # different origins; global schedule order must win.
        engine.schedule(3, order.append, "a")  # bucket for cycle 3

        def at_two():
            engine.schedule(1, order.append, "b")  # next-lane for cycle 3

        engine.schedule(2, at_two)

        def at_three_first(tag):
            order.append(tag)
            engine.schedule(0, order.append, "d")  # zero-lane, cycle 3

        engine.schedule(3, at_three_first, "c")
        engine.run()
        assert order == ["a", "c", "b", "d"]

    def test_zero_delay_runs_before_the_next_cycles_bucket(self):
        """A zero-delay event fires in the cycle that scheduled it, after
        the entry that scheduled it; a delay-1 event scheduled then fires
        after the bucket entries already waiting for the next cycle."""
        engine = self.new_engine()
        order = []

        def spawn():
            order.append("a")
            engine.schedule(0, order.append, "c")
            engine.schedule(1, order.append, "b")

        engine.schedule(1, spawn)
        engine.schedule(2, order.append, "d")
        engine.run()
        assert order == ["a", "c", "d", "b"]

    def test_delay_one_respects_until(self):
        engine = self.new_engine()
        fired = []
        engine.schedule(1, fired.append, 1)
        assert engine.run(until=0) == 0
        assert fired == []
        engine.run()
        assert fired == [1]

    def test_delay_one_chain_advances_one_cycle_at_a_time(self):
        engine = self.new_engine()
        cycles = []

        def tick(n):
            cycles.append(engine.now)
            if n:
                engine.schedule(1, tick, n - 1)

        engine.schedule(1, tick, 4)
        engine.run()
        assert cycles == [1, 2, 3, 4, 5]


class TestCancellationLeak(EngineCase):
    """A workload that arms and cancels timers forever must keep the
    queue bounded (regression test for the cancelled-event leak)."""

    def test_cancel_after_fire_is_noop(self):
        engine = self.new_engine()
        token = engine.schedule(1, lambda: None)
        engine.run()
        live = engine.pending()
        engine.cancel(token)  # already fired: must not corrupt the counters
        engine.cancel(token)
        assert engine.pending() == live == 0
        engine.schedule(1, lambda: None)
        assert engine.pending() == 1

    def test_cancelled_events_are_reclaimed(self):
        engine = self.new_engine()
        rounds = 5_000

        def arm_and_cancel(n):
            # Arm a far-future timer, then immediately cancel it — the
            # validation-controller pattern that used to accumulate dead
            # entries until the far-future cycle drained.
            token = engine.schedule(10_000, lambda: None)
            engine.cancel(token)
            if n:
                engine.schedule(1, arm_and_cancel, n - 1)

        engine.schedule(1, arm_and_cancel, rounds)
        engine.run(until=rounds + 10)
        # Live queue is empty; the dead backlog must stay below the
        # compaction threshold (plus the live count at trigger time),
        # not grow with the number of cancelled timers.
        assert engine.pending() == 0
        queued = sum(len(b) for b in engine._buckets.values())
        queued += len(engine._lane) + len(engine._next)
        assert queued <= 2 * type(engine).COMPACT_THRESHOLD, (
            f"{queued} dead entries retained after {rounds} cancels"
        )

    def test_cancel_in_next_lane_is_reclaimed(self):
        engine = self.new_engine()
        for _ in range(1_000):
            engine.cancel(engine.schedule(1, lambda: None))
        assert engine.pending() == 0
        assert len(engine._next) <= 2 * type(engine).COMPACT_THRESHOLD


    def test_compaction_churn_keeps_the_survivor(self):
        """500 cancels trip compaction again and again; the one live
        event still fires, and only it counts."""
        engine = self.new_engine()
        for i in range(500):
            engine.cancel(engine.schedule(1000 + i, lambda: None))
        survivor = []
        engine.schedule(2000, survivor.append, True)
        engine.run()
        assert survivor == [True]
        assert engine.events_processed == 1

    def test_compaction_with_a_busy_zero_delay_lane(self):
        """Compaction triggered while a cycle's zero-delay events are
        queued keeps every live event, in order: the last of cycle 1's
        41 events cancels 100 timers while the 30 zero-delay events its
        spawns scheduled still wait in the lane."""
        engine = self.new_engine()
        fired = []
        timers = [
            engine.schedule(10_000, fired.append, "timer") for _ in range(100)
        ]

        def spawn(i):
            fired.append(("spawn", i))
            engine.schedule(0, fired.append, ("zero", i))

        def cancel_timers():
            fired.append("cancel")
            for timer in timers:
                engine.cancel(timer)

        for i in range(30):
            engine.schedule(1, spawn, i)
        for i in range(10):
            engine.schedule(1, fired.append, ("plain", i))
        engine.schedule(1, cancel_timers)
        engine.run()
        assert fired == (
            [("spawn", i) for i in range(30)]
            + [("plain", i) for i in range(10)]
            + ["cancel"]
            + [("zero", i) for i in range(30)]
        )
        assert engine.events_processed == 71
        assert engine.now == 1


class TestSwappedLane(EngineCase):
    """The run lane is a list that ``run`` walks and swaps with ``_next``
    at a cycle boundary: a spent budget, an exception and compaction must
    all leave exactly the entries not yet reached."""

    def test_budget_spent_mid_cycle_keeps_the_rest_of_the_cycle(self):
        """A budget that runs out in the middle of cycle 3 leaves the rest
        of that cycle queued, in order, the zero-delay entry included;
        pending() counts it exactly, and the next run fires it at cycle 3,
        before cycle 4."""
        engine = self.new_engine()
        fired = []

        def note(tag):
            fired.append((tag, engine.now))

        def spawn():
            note("spawn")
            engine.schedule(0, note, "zero")

        engine.schedule(3, note, "a")
        engine.schedule(3, spawn)
        engine.schedule(3, note, "b")
        engine.cancel(engine.schedule(3, note, "cancelled"))
        engine.schedule(3, note, "c")
        engine.schedule(4, note, "later")
        with pytest.raises(RuntimeError, match="3 events at cycle 3;"):
            engine.run(max_events=3)
        assert fired == [("a", 3), ("spawn", 3), ("b", 3)]
        assert engine.pending() == 3  # c and zero at cycle 3, later at 4
        assert engine.now == 3
        engine.run()
        assert fired[3:] == [("c", 3), ("zero", 3), ("later", 4)]
        assert engine.events_processed == 6
        assert engine.pending() == 0
        assert engine._lane == [] and engine._dead == 0

    def test_pending_inside_a_callback_counts_what_is_left(self):
        """Mid-cycle, pending() counts the lane entries not yet reached,
        not the ones already fired."""
        engine = self.new_engine()
        seen = []
        for _ in range(3):
            engine.schedule(1, lambda: seen.append(engine.pending()))
        engine.schedule(2, lambda: None)
        engine.run()
        assert seen == [3, 2, 1]

    def test_a_raising_callback_leaves_the_rest_queued(self):
        engine = self.new_engine()
        fired = []

        def boom():
            raise ValueError("boom")

        engine.schedule(1, fired.append, "a")
        engine.schedule(1, boom)
        engine.schedule(1, fired.append, "b")
        with pytest.raises(ValueError, match="boom"):
            engine.run()
        assert engine.pending() == 1
        engine.run()
        assert fired == ["a", "b"]
        assert engine.now == 1

    def test_compaction_leaves_the_walked_lane_alone(self, monkeypatch):
        """One event cancels 80 of the 100 entries still waiting in its
        own cycle and 200 future timers.  Compaction drops the timers but
        not the lane's dead entries, which run() is walking, and
        subtracts only what it removed, so pending() stays exact; and it
        does not run again on every later cancel just because the lane's
        dead entries are still there (without the raised threshold, the
        last ~60 timer cancels would each compact)."""
        threshold = Engine.COMPACT_THRESHOLD
        compactions = []
        compact = Engine._compact

        def counting(engine):
            compactions.append(engine._dead)
            compact(engine)

        monkeypatch.setattr(Engine, "_compact", counting)
        engine = self.new_engine()
        fired = []
        seen = {}

        def cancel_all():
            fired.append("cancel")
            for i, handle in enumerate(waiting):
                if i % 5:
                    engine.cancel(handle)
            seen["after lane"] = engine.pending()
            for timer in timers:
                engine.cancel(timer)
            seen["after timers"] = engine.pending()
            seen["outside lane"] = len(engine._next) + sum(
                map(len, engine._buckets.values())
            )

        engine.schedule(1, cancel_all)
        waiting = [engine.schedule(1, fired.append, i) for i in range(100)]
        timers = [
            engine.schedule(10_000, fired.append, "timer") for _ in range(200)
        ]
        engine.run()
        assert fired == ["cancel"] + list(range(0, 100, 5))
        assert seen["after lane"] == 20 + 200
        assert seen["after timers"] == 20
        assert seen["outside lane"] <= 2 * threshold
        assert len(compactions) <= 1 + len(timers) // threshold
        assert engine.events_processed == 21
        assert engine.pending() == 0 and engine._dead == 0
        assert engine.now == 1  # the all-dead timer cycle moved nothing
