"""Tests for the invariant checker and the tracing facility, including
mid-run invariant stress over every HTM system."""

import pytest

from repro.obs import TraceEvent, Tracer
from repro.sim.config import SystemConfig, table2_config
from repro.sim.invariants import InvariantViolation, check_invariants, check_quiescent
from repro.sim.ops import Read, Txn, Work, Write
from repro.sim.simulator import Simulator
from repro.systems import paper, paper_systems
from repro.workloads.base import make_workload
from repro.workloads.scripted import ScriptedWorkload

X = 0x10_0000
Y = 0x10_1000


class TestInvariantChecker:
    @pytest.mark.parametrize("system", paper_systems(), ids=str)
    def test_invariants_hold_throughout_contended_runs(self, system):
        """Schedule the full checker every 500 cycles of a contended run:
        no intermediate machine state may violate it."""
        wl = make_workload("kmeans-h", threads=8, seed=1, scale=0.12)
        sim = Simulator(wl, htm=table2_config(system))
        checks = {"n": 0}

        def periodic():
            check_invariants(sim)
            checks["n"] += 1
            if not all(c.done for c in sim.cores[: wl.num_threads]):
                sim.engine.schedule(500, periodic)

        sim.engine.schedule(100, periodic)
        sim.run()
        assert checks["n"] > 3
        check_invariants(sim)
        check_quiescent(sim)

    def test_detects_double_writable_copy(self):
        wl = make_workload("counter", threads=2, seed=1, scale=0.05)
        sim = Simulator(wl)
        sim.run()
        # Forge a second writable copy of a block core 0 owns.
        block = next(iter(sim.l1s[0].cache.resident_blocks()), None)
        if block is None:
            pytest.skip("no resident line to duplicate")
        sim.l1s[1].cache.install(block, "M")
        with pytest.raises(InvariantViolation, match="writable in both"):
            check_invariants(sim)

    def test_detects_orphan_sm_line(self):
        wl = make_workload("counter", threads=2, seed=1, scale=0.05)
        sim = Simulator(wl)
        sim.run()
        sim.l1s[0].cache.install(123, "M", speculative=True)
        with pytest.raises(InvariantViolation, match="no active transaction"):
            check_invariants(sim)

    def test_quiescent_detects_held_lock(self):
        wl = make_workload("counter", threads=2, seed=1, scale=0.05)
        sim = Simulator(wl)
        sim.run()
        sim.memory.write_word(sim.lock.addr, 1)
        with pytest.raises(InvariantViolation, match="lock"):
            check_quiescent(sim)

    def test_quiescent_detects_unreleased_token(self):
        wl = make_workload("counter", threads=2, seed=1, scale=0.05)
        sim = Simulator(wl)
        sim.run()
        sim.power.request(0, lambda: None)
        with pytest.raises(InvariantViolation, match="token"):
            check_quiescent(sim)


class TestTracer:
    def _chain_sim(self):
        def producer():
            def body():
                yield Write(X, 7)
                yield Work(500)

            yield Txn(body, ())

        def consumer():
            yield Work(150)

            def body():
                v = yield Read(X)
                yield Write(Y, v)

            yield Txn(body, ())

        wl = ScriptedWorkload([producer, consumer])
        return Simulator(
            wl,
            htm=table2_config(paper.CHATS),
            config=SystemConfig(num_cores=2),
        ), wl

    def test_records_forwards_commits_and_messages(self):
        sim, _ = self._chain_sim()
        with Tracer(sim) as trace:
            sim.run()
        assert trace.of_kind("forward"), "the chain must appear in the trace"
        commits = trace.of_kind("commit")
        assert [e.core for e in commits] == [0, 1]  # producer first
        assert trace.of_kind("message")

    def test_block_filter(self):
        sim, wl = self._chain_sim()
        hot = wl.space.geometry.block_of(X)
        with Tracer(sim, blocks={hot}) as trace:
            sim.run()
        msgs = trace.of_kind("message")
        assert msgs and all(e.block == hot for e in msgs)

    def test_kind_filter(self):
        sim, _ = self._chain_sim()
        with Tracer(sim, kinds={"commit"}) as trace:
            sim.run()
        assert trace.events
        assert all(e.kind == "commit" for e in trace.events)

    def test_max_events_cap(self):
        sim, _ = self._chain_sim()
        with Tracer(sim, max_events=5) as trace:
            sim.run()
        assert len(trace.events) == 5

    def test_hooks_are_restored(self):
        from repro.net.network import Crossbar
        from repro.sim.core import Core

        before = (Crossbar.send, Core._do_commit, Core.abort_tx)
        sim, _ = self._chain_sim()
        with Tracer(sim):
            sim.run()
        assert (Crossbar.send, Core._do_commit, Core.abort_tx) == before

    def test_event_rendering(self):
        event = TraceEvent(cycle=42, kind="commit", core=1, detail="epoch=3")
        text = str(event)
        assert "42" in text and "commit" in text and "core1" in text

    def test_render_joins_events(self):
        sim, _ = self._chain_sim()
        with Tracer(sim, kinds={"commit"}) as trace:
            sim.run()
        assert len(trace.render().splitlines()) == len(trace.events)

    def test_abort_events_recorded(self):
        def a():
            def body():
                v = yield Read(X)
                yield Work(120)
                yield Write(X, v + 1)

            yield Txn(body, ())

        wl = ScriptedWorkload([a, a])
        sim = Simulator(
            wl,
            htm=table2_config(paper.BASELINE),
            config=SystemConfig(num_cores=2),
        )
        with Tracer(sim, kinds={"abort", "commit"}) as trace:
            sim.run()
        assert len(trace.of_kind("commit")) == 2
        # The contended increments produce at least one abort.
        assert trace.of_kind("abort")
