"""Targeted tests for the L1 controller and the validation controller,
exercised through minimal scripted machines with state introspection."""

import pytest

from repro.htm.stats import AbortReason
from repro.net.messages import MessageKind
from repro.sim.config import SystemConfig, table2_config
from repro.sim.ops import Read, Txn, Work, Write
from repro.sim.simulator import Simulator
from repro.systems import paper
from repro.workloads.scripted import ScriptedWorkload

X = 0x10_0000
Y = 0x10_1000
Z = 0x10_2000


def build(threads, system=paper.CHATS, htm=None, config=None, **kw):
    wl = ScriptedWorkload(list(threads), **kw)
    return Simulator(
        wl,
        htm=htm or table2_config(system),
        config=config or SystemConfig(num_cores=max(2, len(threads))),
    )


class TestCachePaths:
    def test_repeat_reads_hit_in_l1(self):
        def thread():
            def body():
                total = 0
                for _ in range(10):
                    v = yield Read(X)
                    total += v
                yield Write(Y, total)

            yield Txn(body, ())

        sim = build([thread], paper.BASELINE)
        sim.run()
        # One GETS for X, one GETX for Y, one GETS for the lock word (plus
        # their grants/unblocks) — far fewer than one request per read.
        assert sim.directory.requests <= 6

    def test_write_after_read_upgrades(self):
        def thread():
            def body():
                v = yield Read(X)
                yield Write(X, v + 1)

            yield Txn(body, ())

        sim = build([thread], paper.BASELINE)
        sim.run()
        block = sim.workload.space.geometry.block_of(X)
        assert sim.directory.owner_of(block) == 0

    def test_committed_line_stays_owned(self):
        def thread():
            def body():
                yield Write(X, 1)

            yield Txn(body, ())
            yield Work(50)

            def body2():
                yield Write(X, 2)  # must be a pure L1 hit

            yield Txn(body2, ())

        sim = build([thread], paper.BASELINE)
        sim.run()
        block = sim.workload.space.geometry.block_of(X)
        line = sim.l1s[0].cache.peek(block)
        assert line is not None and line.state == "M" and not line.speculative
        assert sim.memory.read_word(X) == 2


class TestSpecRespHandling:
    def _chain(self, consumer_body_extra=0):
        def producer():
            def body():
                yield Write(X, 7)
                yield Work(600)

            yield Txn(body, ())

        def consumer():
            yield Work(150)

            def body():
                v = yield Read(X)
                if consumer_body_extra:
                    yield Work(consumer_body_extra)
                yield Write(Y, v)

            yield Txn(body, ())

        return [producer, consumer]

    def test_spec_block_enters_write_set_and_vsb(self):
        sim = build(self._chain(consumer_body_extra=3000), paper.CHATS)
        block = sim.workload.space.geometry.block_of(X)
        snapshots = []

        def probe():
            tx = sim.cores[1].tx
            if tx is not None and tx.active and tx.vsb.contains(block):
                snapshots.append(
                    (
                        tx.writes(block),
                        tx.pic.value,
                        tx.pic.cons,
                        sim.l1s[1].cache.peek(block).spec_received,
                    )
                )

        # Poll the consumer's state during the run.
        for t in range(200, 3000, 100):
            sim.engine.schedule(t, probe)
        sim.run()
        assert snapshots, "consumer never held a speculative block"
        wrote, pic, cons, spec_received = snapshots[0]
        assert wrote, "spec-received blocks join the write set (III-A)"
        assert pic == 14, "consumer adopts PiC_init - 1"
        assert cons, "Cons bit set while speculation is pending"
        assert spec_received

    def test_validated_block_becomes_owned(self):
        sim = build(self._chain(), paper.CHATS)
        sim.run()
        block = sim.workload.space.geometry.block_of(X)
        # After validation the consumer became the real owner.
        assert sim.directory.owner_of(block) == 1
        line = sim.l1s[1].cache.peek(block)
        assert line is not None and not line.spec_received

    def test_validation_stats(self):
        sim = build(self._chain(), paper.CHATS)
        sim.run()
        assert sim.stats.validations_attempted >= 1
        assert sim.stats.validations_succeeded >= 1
        assert sim.stats.validation_mismatches == 0


class TestValidationInterval:
    @pytest.mark.parametrize("interval", [10, 50, 200])
    def test_interval_respected(self, interval):
        htm = table2_config(paper.CHATS).replace(
            validation_interval=interval
        )

        def producer():
            def body():
                yield Write(X, 7)
                yield Work(1200)

            yield Txn(body, ())

        def consumer():
            yield Work(150)

            def body():
                v = yield Read(X)
                yield Write(Y, v)

            yield Txn(body, ())

        sim = build([producer, consumer], htm=htm)
        sim.run()
        # Longer intervals mean fewer validation attempts over the same
        # producer lifetime.
        attempts = sim.stats.validations_attempted
        assert attempts >= 1
        if interval == 200:
            assert attempts <= 10
        if interval == 10:
            assert attempts >= 5

    def test_levc_interval_zero_validates_continuously(self):
        def producer():
            def body():
                yield Write(X, 7)
                yield Work(400)

            yield Txn(body, ())

        def consumer():
            yield Work(120)

            def body():
                v = yield Read(X)
                yield Write(Y, v)

            yield Txn(body, ())

        sim = build([producer, consumer], paper.LEVC)
        sim.run()
        assert sim.stats.validations_attempted >= 3


class TestVSBCapacity:
    def test_consumer_limited_by_vsb(self):
        """A transaction consuming more blocks than the VSB holds must
        fall back to requester-wins for the overflow blocks."""
        htm = table2_config(paper.CHATS).replace(vsb_size=2)
        producers = []
        blocks = [X, Y, Z, 0x10_3000]

        def make_producer(addr, val):
            def thread():
                def body():
                    yield Write(addr, val)
                    yield Work(1500)

                yield Txn(body, ())

            return thread

        for i, addr in enumerate(blocks):
            producers.append(make_producer(addr, i + 1))

        def consumer():
            yield Work(200)

            def body():
                total = 0
                for addr in blocks:
                    v = yield Read(addr)
                    total += v
                yield Write(0x10_4000, total)

            yield Txn(body, ())

        sim = build(
            producers + [consumer],
            htm=htm,
            config=SystemConfig(num_cores=5),
        )
        sim.run()
        # With 2 VSB entries the consumer speculates on the first two
        # blocks only; for the rest its request advertises can_consume
        # = False and the producers lose requester-wins — the consumer
        # reads their pre-transaction values (a valid serialization where
        # the consumer precedes those producers).
        assert sim.memory.read_word(0x10_4000) == 1 + 2 + 0 + 0
        assert sim.stats.aborts[AbortReason.CONFLICT] >= 2

        # With 4 entries the same program chains on all four producers.
        htm4 = table2_config(paper.CHATS).replace(vsb_size=4)
        sim4 = build(
            producers + [consumer],
            htm=htm4,
            config=SystemConfig(num_cores=5),
        )
        sim4.run()
        assert sim4.memory.read_word(0x10_4000) == 1 + 2 + 3 + 4


class TestEvictionWriteback:
    def test_owned_victim_sends_writeback(self):
        config = SystemConfig(num_cores=2, l1_size_bytes=64 * 2 * 2, l1_ways=2)
        sets = config.l1_sets

        def thread():
            # Non-transactional writes to 3 blocks of the same set evict
            # an owned line, which must notify the directory.
            for i in range(3):
                yield Write(0x4000 + i * sets * 64, i)

        sim = build([thread], paper.BASELINE, config=config)
        sim.run()
        wb = sim.network.flits_by_kind.get(MessageKind.WRITEBACK, 0)
        assert wb > 0
