"""Scenario tests: CHATS forwarding behaviour driven through precise
scripted interleavings.

These tests stage producer/consumer timings with ``Work`` delays and check
both the final memory state (atomicity) and the statistics (which
mechanism actually fired): forwarding, validation success, value-mismatch
aborts, cascading aborts, and cycle avoidance — the behaviours of
Sections III and IV.
"""


from repro.htm.stats import AbortReason
from repro.sim.ops import Abort, Read, Txn, Work, Write
from repro.systems import paper
from tests.conftest import run_scripted

X = 0x10_0000  # block A
Y = 0x10_1000  # block B
Z = 0x10_2000  # block C


class TestForwardingChain:
    def test_consumer_chains_after_producer(self):
        """A consumer that reads a producer's final speculative value
        commits after the producer with the correct data."""

        def producer():
            def body():
                yield Write(X, 7)  # final immediately
                yield Work(600)  # ...but the transaction lingers

            yield Txn(body, ())

        def consumer():
            yield Work(150)  # let the producer own the block

            def body():
                v = yield Read(X)
                yield Write(Y, v + 1)

            yield Txn(body, ())

        result, sim = run_scripted(
            [producer, consumer],
            paper.CHATS,
            check=lambda m: m.read_word(X) == 7 and m.read_word(Y) == 8,
        )
        assert sim.stats.spec_forwards >= 1
        assert sim.stats.validations_succeeded >= 1
        assert sim.stats.consumer_committed == 1
        assert sim.stats.forwarder_committed == 1
        assert result.total_aborts == 0

    def test_forwarding_requires_a_conflict_window(self):
        """Sequential transactions (no overlap) never forward."""

        def t0():
            def body():
                yield Write(X, 1)

            yield Txn(body, ())

        def t1():
            yield Work(2000)

            def body():
                v = yield Read(X)
                yield Write(Y, v)

            yield Txn(body, ())

        _, sim = run_scripted([t0, t1], paper.CHATS)
        assert sim.stats.spec_forwards == 0

    def test_baseline_aborts_where_chats_forwards(self):
        """The same interleaving under requester-wins aborts the holder."""

        def producer():
            def body():
                yield Write(X, 7)
                yield Work(600)

            yield Txn(body, ())

        def consumer():
            yield Work(150)

            def body():
                v = yield Read(X)
                yield Write(Y, v + 1)

            yield Txn(body, ())

        _, sim = run_scripted(
            [producer, consumer],
            paper.BASELINE,
            check=lambda m: m.read_word(X) == 7,
        )
        assert sim.stats.spec_forwards == 0
        assert sim.stats.aborts[AbortReason.CONFLICT] >= 1


class TestValidationFailures:
    def test_intermediate_value_aborts_consumer(self):
        """The producer overwrites the block after forwarding: the
        consumer's speculation was on an intermediate version and must
        fail validation (case (i) of Section III-A)."""

        def producer():
            def body():
                yield Write(X, 1)
                yield Work(400)  # forward happens in this window...
                yield Write(X, 2)  # ...then the value changes
                yield Work(200)

            yield Txn(body, ())

        def consumer():
            yield Work(100)

            def body():
                v = yield Read(X)
                yield Write(Y, v * 10)

            yield Txn(body, ())

        result, sim = run_scripted(
            [producer, consumer],
            paper.CHATS,
            # Serializability: the consumer eventually retries and must
            # observe the committed 2.
            check=lambda m: m.read_word(X) == 2 and m.read_word(Y) == 20,
        )
        assert sim.stats.validation_mismatches >= 1
        assert sim.stats.aborts[AbortReason.VALIDATION] >= 1

    def test_producer_abort_cascades_through_validation(self):
        """When the producer dies, its consumers discover the stale value
        through validation — no dedicated abort messages (Section III-A)."""

        def producer():
            def body(attempt=[0]):
                attempt[0] += 1
                yield Write(X, 100 + attempt[0])
                yield Work(400)
                if attempt[0] == 1:
                    yield Abort()  # first attempt dies after forwarding

            yield Txn(body, ())

        def consumer():
            yield Work(100)

            def body():
                v = yield Read(X)
                yield Write(Y, v)

            yield Txn(body, ())

        result, sim = run_scripted(
            [producer, consumer],
            paper.CHATS,
            check=lambda m: m.read_word(X) == 102 and m.read_word(Y) == 102,
        )
        assert sim.stats.spec_forwards >= 1
        assert sim.stats.aborts[AbortReason.EXPLICIT] == 1
        # The consumer observed the inconsistency via value comparison.
        assert (
            sim.stats.aborts[AbortReason.VALIDATION] >= 1
            or sim.stats.consumer_aborted >= 1
        )


class TestMultipleConsumers:
    def test_consumers_serialize_behind_producer(self):
        """T1 and T2 both consume from T0; commits serialize and the final
        state reflects a valid serial order (Section III-A)."""

        def producer():
            def body():
                yield Write(X, 5)
                yield Work(500)

            yield Txn(body, ())

        def consumer(dst):
            def thread():
                yield Work(120)

                def body():
                    v = yield Read(X)
                    yield Write(dst, v + 1)

                yield Txn(body, ())

            return thread

        result, sim = run_scripted(
            [producer, consumer(Y), consumer(Z)],
            paper.CHATS,
            check=lambda m: m.read_word(Y) == 6 and m.read_word(Z) == 6,
        )
        assert sim.stats.spec_forwards >= 2

    def test_writing_consumers_cannot_both_commit(self):
        """Two consumers that *modify* the same forwarded block must
        serialize: value-based validation kills the loser."""

        def producer():
            def body():
                yield Write(X, 0)
                yield Work(500)

            yield Txn(body, ())

        def incrementer():
            yield Work(120)

            def body():
                v = yield Read(X)
                yield Work(30)
                yield Write(X, v + 1)

            yield Txn(body, ())

        result, sim = run_scripted(
            [producer, incrementer, incrementer],
            paper.CHATS,
            check=lambda m: m.read_word(X) == 2,  # both increments land
        )
        assert result.total_commits == 3


class TestCycleAvoidance:
    def test_mutual_producers_do_not_deadlock(self):
        """A wants B's block and vice versa: a cyclic chain would wedge
        both at the commit fence; the PiC rules must abort one instead."""

        def make(mine, theirs, seed_value):
            def thread():
                def body():
                    yield Write(mine, seed_value)
                    yield Work(200)
                    v = yield Read(theirs)
                    yield Work(200)
                    yield Write(mine + 8, v)

                yield Txn(body, ())

            return thread

        result, sim = run_scripted(
            [make(X, Y, 1), make(Y, X, 2)],
            paper.CHATS,
            check=lambda m: m.read_word(X) == 1 and m.read_word(Y) == 2,
        )
        # Both transactions completed (no deadlock) and the run ended.
        assert result.total_commits == 2

    def test_longer_potential_cycle_resolves(self):
        """Three transactions in a potential ring on three blocks."""
        blocks = (X, Y, Z)

        def make(i):
            mine, theirs = blocks[i], blocks[(i + 1) % 3]

            def thread():
                def body():
                    yield Write(mine, i + 1)
                    yield Work(150)
                    v = yield Read(theirs)
                    yield Work(150)
                    yield Write(mine + 8, v + 10)

                yield Txn(body, ())

            return thread

        result, sim = run_scripted(
            [make(0), make(1), make(2)],
            paper.CHATS,
            check=lambda m: all(
                m.read_word(b) == i + 1 for i, b in enumerate(blocks)
            ),
        )
        assert result.total_commits == 3


class TestABA:
    def test_aba_speculation_succeeds_on_matching_value(self):
        """Section III-C: speculation on value A is correct whenever the
        validated value is A again — even if the location briefly held B
        in between.  The consumer speculates X==7 from T_P; later writers
        set X to 9 and back to 7 before validation; the consumer commits."""

        def producer():
            def body():
                yield Write(X, 7)
                yield Work(260)

            yield Txn(body, ())

        def churner():
            # Non-transactional writes after the producer commits: 9, then
            # back to 7 (the ABA pattern).
            yield Work(400)
            yield Write(X, 9)
            yield Write(X, 7)

        def consumer():
            yield Work(120)

            def body():
                v = yield Read(X)
                # Long-running: validation happens well after the churn.
                yield Work(900)
                yield Write(Y, v)

            yield Txn(body, ())

        result, sim = run_scripted(
            [producer, churner, consumer],
            paper.CHATS,
            check=lambda m: m.read_word(X) == 7,
        )
        final_y = sim.memory.read_word(Y)
        assert final_y == 7, "the consumer's speculation on 7 must hold"


class TestPiCLifecycle:
    def test_pic_resets_after_commit(self):
        def producer():
            def body():
                yield Write(X, 1)
                yield Work(400)

            yield Txn(body, ())

        def consumer():
            yield Work(100)

            def body():
                v = yield Read(X)
                yield Write(Y, v)

            yield Txn(body, ())

        _, sim = run_scripted([producer, consumer], paper.CHATS)
        for core in sim.cores:
            assert core.tx is None  # all transactions completed
