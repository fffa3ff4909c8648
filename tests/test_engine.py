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


class TestRunBounds(EngineCase):
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
    """A workload that arms and cancels timers forever keeps only the
    dead entries still ahead of the clock (regression test for the
    cancelled-event leak)."""

    def test_cancel_after_fire_is_noop(self):
        engine = self.new_engine()
        fired = []
        token = engine.schedule(1, fired.append, "old")
        engine.run()
        engine.cancel(token)  # already fired: must not corrupt the counters
        engine.cancel(token)
        engine.schedule(1, fired.append, "new")
        assert engine.run() == 2
        assert fired == ["old", "new"]
        assert engine.events_processed == 2

    def test_cancelled_events_are_reclaimed(self):
        """The validation-timer pattern: each step arms a timer 50 cycles
        ahead and cancels it.  A dead entry is dropped when its cycle
        drains, so the queue never holds more than the 50-cycle horizon's
        dead timers, and nothing is left once the run ends."""
        engine = self.new_engine()
        rounds, horizon = 5_000, 50
        samples = []

        def arm_and_cancel(n):
            engine.cancel(engine.schedule(horizon, lambda: None))
            queued = len(engine._next) + sum(map(len, engine._buckets.values()))
            samples.append((queued, engine._dead))
            if n:
                engine.schedule(1, arm_and_cancel, n - 1)

        engine.schedule(1, arm_and_cancel, rounds)
        assert engine.run() == rounds + 1
        assert len(samples) == rounds + 1
        assert max(max(sample) for sample in samples) <= horizon
        assert engine._buckets == {} and engine._next == []
        assert engine._lane == [] and engine._dead == 0

    def test_cancel_churn_keeps_the_survivor(self):
        """500 cancelled timers, each in a cycle of its own; the one live
        event still fires, and only it counts."""
        engine = self.new_engine()
        for i in range(500):
            engine.cancel(engine.schedule(1000 + i, lambda: None))
        survivor = []
        engine.schedule(2000, survivor.append, True)
        engine.run()
        assert survivor == [True]
        assert engine.events_processed == 1

    def test_mass_cancel_with_a_busy_zero_delay_lane(self):
        """Cancelling many timers while a cycle's zero-delay events are
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
