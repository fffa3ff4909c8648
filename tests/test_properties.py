"""Property-based whole-machine tests.

Hypothesis generates random transactional programs (random read/write/
work sequences over a small set of shared blocks); every HTM system must
execute them to a *serializable* final state.  For programs built purely
from commutative increments the final state is exactly predictable; for
general random programs we check against the set of final states produced
by all serial permutations (for small thread counts).
"""


from hypothesis import given, settings, strategies as st

from repro.mem.address import Geometry
from repro.sim.ops import Read, Txn, Work, Write
from repro.systems import paper
from tests.conftest import run_scripted

GEOMETRY = Geometry()
BASE = 0x20_0000
BLOCKS = [BASE + i * 0x1000 for i in range(4)]


def increments_strategy():
    """Per-thread lists of (block_index, repeat) increment descriptors."""
    return st.lists(
        st.lists(
            st.tuples(st.integers(0, len(BLOCKS) - 1), st.integers(1, 3)),
            min_size=1,
            max_size=4,
        ),
        min_size=2,
        max_size=4,
    )


def build_increment_threads(plan):
    threads = []
    totals = {addr: 0 for addr in BLOCKS}
    for thread_plan in plan:
        def make_thread(tp=tuple(thread_plan)):
            def thread():
                for block_idx, repeat in tp:
                    addr = BLOCKS[block_idx]

                    def body(a=addr, r=repeat):
                        for _ in range(r):
                            v = yield Read(a)
                            yield Work(7)
                            yield Write(a, v + 1)

                    yield Txn(body, ())
                    yield Work(5)

            return thread

        threads.append(make_thread())
        for block_idx, repeat in thread_plan:
            totals[BLOCKS[block_idx]] += repeat
    return threads, totals


class TestSerializabilityOfIncrements:
    @given(plan=increments_strategy())
    @settings(max_examples=12, deadline=None)
    def test_chats_preserves_every_increment(self, plan):
        threads, totals = build_increment_threads(plan)
        _, sim = run_scripted(threads, paper.CHATS)
        for addr, expected in totals.items():
            assert sim.memory.read_word(addr) == expected

    @given(plan=increments_strategy())
    @settings(max_examples=8, deadline=None)
    def test_naive_rs_preserves_every_increment(self, plan):
        threads, totals = build_increment_threads(plan)
        _, sim = run_scripted(threads, paper.NAIVE_RS)
        for addr, expected in totals.items():
            assert sim.memory.read_word(addr) == expected

    @given(plan=increments_strategy())
    @settings(max_examples=8, deadline=None)
    def test_pchats_preserves_every_increment(self, plan):
        threads, totals = build_increment_threads(plan)
        _, sim = run_scripted(threads, paper.PCHATS)
        for addr, expected in totals.items():
            assert sim.memory.read_word(addr) == expected

    @given(plan=increments_strategy())
    @settings(max_examples=8, deadline=None)
    def test_levc_preserves_every_increment(self, plan):
        threads, totals = build_increment_threads(plan)
        _, sim = run_scripted(threads, paper.LEVC)
        for addr, expected in totals.items():
            assert sim.memory.read_word(addr) == expected


def txn_program_strategy():
    """Two-thread programs of read-into-write transactions.

    Each transaction reads one block and writes f(v) = v * m + c to
    another (possibly the same) — non-commutative, so serialization
    order matters and the oracle enumerates serial permutations.
    """
    txn = st.tuples(
        st.integers(0, 2),  # src block
        st.integers(0, 2),  # dst block
        st.integers(2, 5),  # multiplier
        st.integers(1, 9),  # addend
    )
    return st.lists(st.lists(txn, min_size=1, max_size=2), min_size=2, max_size=2)


def serial_outcomes(plan):
    """All final states reachable by serial execution of whole threads'
    transactions in any interleaved (but per-thread ordered) sequence."""
    per_thread = [list(p) for p in plan]

    def interleavings(seqs):
        if all(not s for s in seqs):
            yield ()
            return
        for i, s in enumerate(seqs):
            if s:
                rest = [list(x) for x in seqs]
                head = rest[i].pop(0)
                for tail in interleavings(rest):
                    yield (head,) + tail

    outcomes = set()
    for order in interleavings(per_thread):
        state = {i: 0 for i in range(3)}
        for src, dst, m, c in order:
            state[dst] = state[src] * m + c
        outcomes.add(tuple(state[i] for i in range(3)))
    return outcomes


class TestSerializabilityOfGeneralPrograms:
    @given(plan=txn_program_strategy())
    @settings(max_examples=10, deadline=None)
    def test_chats_final_state_is_some_serial_order(self, plan):
        threads = []
        for thread_plan in plan:
            def make_thread(tp=tuple(thread_plan)):
                def thread():
                    for src, dst, m, c in tp:
                        def body(s=src, d=dst, mm=m, cc=c):
                            v = yield Read(BLOCKS[s])
                            yield Work(11)
                            yield Write(BLOCKS[d], v * mm + cc)

                        yield Txn(body, ())

                return thread

            threads.append(make_thread())
        _, sim = run_scripted(threads, paper.CHATS)
        final = tuple(sim.memory.read_word(BLOCKS[i]) for i in range(3))
        assert final in serial_outcomes(plan), (
            f"final state {final} matches no serial execution"
        )


class TestDeterminismProperty:
    @given(plan=increments_strategy())
    @settings(max_examples=6, deadline=None)
    def test_identical_runs_identical_cycles(self, plan):
        threads_a, _ = build_increment_threads(plan)
        threads_b, _ = build_increment_threads(plan)
        res_a, _ = run_scripted(threads_a, paper.CHATS)
        res_b, _ = run_scripted(threads_b, paper.CHATS)
        assert res_a.cycles == res_b.cycles
        assert res_a.total_aborts == res_b.total_aborts
