"""Tests for the ScriptedWorkload helper itself."""

import pytest

from repro.sim.ops import Read, Work, Write
from repro.systems import paper
from repro.workloads.scripted import ScriptedWorkload
from tests.conftest import run_scripted

X = 0x10_0000


class TestConstruction:
    def test_needs_threads(self):
        with pytest.raises(ValueError):
            ScriptedWorkload([])

    def test_thread_count(self):
        def t():
            yield Work(1)

        wl = ScriptedWorkload([t, t, t])
        assert wl.num_threads == 3

    def test_initial_image(self):
        def t():
            v = yield Read(X)
            yield Write(X + 8, v * 2)

        _, sim = run_scripted([t], paper.BASELINE, initial={X: 21})
        assert sim.memory.read_word(X + 8) == 42

    def test_check_failure_raises(self):
        def t():
            yield Write(X, 1)

        with pytest.raises(AssertionError, match="scripted workload check"):
            run_scripted(
                [t], paper.BASELINE, check=lambda m: m.read_word(X) == 2
            )

    def test_check_success(self):
        def t():
            yield Write(X, 1)

        run_scripted(
            [t], paper.BASELINE, check=lambda m: m.read_word(X) == 1
        )

    def test_lock_does_not_collide_with_scripted_range(self):
        """The fallback lock must be allocated outside the address range
        scripted scenarios use (a collision once caused a livelock)."""
        def t():
            yield Work(1)

        wl = ScriptedWorkload([t])
        from repro.sim.simulator import Simulator

        sim = Simulator(wl)
        assert sim.lock.addr >= 16 << 20

    def test_threads_run_concurrently(self):
        marks = []

        def t(name):
            def thread():
                yield Work(100)
                marks.append(name)

            return thread

        result, _ = run_scripted([t("a"), t("b")], paper.BASELINE)
        # Both finish around cycle 100 — concurrent, not serial.
        assert result.cycles < 150
        assert sorted(marks) == ["a", "b"]
