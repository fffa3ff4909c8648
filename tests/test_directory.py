"""Unit tests for the MESI directory, driven with hand-built messages.

A small harness wires the directory to a real engine and a capturing
network, letting each protocol episode (grant, forward, invalidation
round, heal, cancel) be tested in isolation — complementing the
whole-machine scenario tests.
"""

import pytest

from repro.mem.address import Geometry
from repro.mem.directory import Directory
from repro.mem.memory import MainMemory
from repro.net.messages import DIRECTORY, MessageKind, make_message
from repro.net.network import Crossbar
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine

BLOCK = 7


class Harness:
    def __init__(self):
        self.engine = Engine()
        self.memory = MainMemory(Geometry())
        # (core, message) per delivery, the core taken from the delivery
        # table: one INV record reaches every sharer, so a message's own
        # ``dst`` does not say where it was delivered.
        self.delivered = []
        self.config = SystemConfig(num_cores=4)
        self.network = Crossbar(self.engine, self.config)
        self.directory = Directory(
            self.engine, self.config, self.memory, self.network
        )
        cores = [
            [self._recorder(core)] * len(MessageKind) for core in range(4)
        ]
        self.network.connect(cores + [self.directory._handlers])

    def _recorder(self, core):
        return lambda msg: self.delivered.append((core, msg))

    def send(self, kind, src, *, block=BLOCK, req_id=1, **kw):
        self.directory.handle(
            make_message(kind=kind, src=src, dst=DIRECTORY, block=block, req_id=req_id, **kw)
        )
        self.engine.run()

    def to_core(self, core):
        return [m for dst, m in self.delivered if dst == core]

    def clear(self):
        self.delivered.clear()


@pytest.fixture
def h():
    return Harness()


class TestGrants:
    def test_cold_gets_grants_shared_from_memory(self, h):
        h.memory.write_word(BLOCK * 64, 99)
        h.send(MessageKind.GETS, src=0)
        msgs = h.to_core(0)
        assert [m.kind for m in msgs] == [MessageKind.DATA]
        assert msgs[0].data[0] == 99
        assert h.directory.sharers_of(BLOCK) == {0}
        assert h.directory.owner_of(BLOCK) is None

    def test_cold_getx_grants_exclusive(self, h):
        h.send(MessageKind.GETX, src=0)
        msgs = h.to_core(0)
        assert [m.kind for m in msgs] == [MessageKind.DATA_E]
        assert h.directory.owner_of(BLOCK) == 0

    def test_block_busy_until_recv(self, h):
        h.send(MessageKind.GETX, src=0)
        entry = h.directory._entry(BLOCK)
        assert entry.busy, "grant in flight: block must be busy"
        h.send(MessageKind.UNBLOCK, src=0, action="recv")
        assert not entry.busy

    def test_queued_request_served_after_recv(self, h):
        h.send(MessageKind.GETX, src=0)
        h.send(MessageKind.GETS, src=1)  # queues behind the busy grant
        assert h.to_core(1) == []
        h.send(MessageKind.UNBLOCK, src=0, action="recv")
        # Now core1's GETS is forwarded to the owner (core 0).
        fwd = h.to_core(0)
        assert fwd[-1].kind is MessageKind.FWD_GETS
        assert fwd[-1].requester == 1

    def test_strict_fifo_no_overtaking(self, h):
        h.send(MessageKind.GETX, src=0)
        h.send(MessageKind.GETS, src=1)
        h.send(MessageKind.GETS, src=2)
        h.send(MessageKind.UNBLOCK, src=0, action="recv")
        # core1's request must be the one forwarded first.
        fwds = [m for m in h.to_core(0) if m.kind is MessageKind.FWD_GETS]
        assert fwds[0].requester == 1

    def test_stale_self_ownership_refreshes(self, h):
        h.send(MessageKind.GETX, src=0)
        h.send(MessageKind.UNBLOCK, src=0, action="recv")
        h.clear()
        # Core 0 lost the line (gang invalidation) and asks again.
        h.send(MessageKind.GETS, src=0, req_id=2)
        assert h.to_core(0)[-1].kind is MessageKind.DATA
        assert h.directory.owner_of(BLOCK) is None


class TestOwnerForwarding:
    def _own(self, h, core=0):
        h.send(MessageKind.GETX, src=core)
        h.send(MessageKind.UNBLOCK, src=core, action="recv")
        h.clear()

    def test_gets_forwarded_to_owner(self, h):
        self._own(h)
        h.send(MessageKind.GETS, src=1, req_id=2, pic=11)
        fwd = h.to_core(0)[-1]
        assert fwd.kind is MessageKind.FWD_GETS
        assert fwd.requester == 1
        assert fwd.pic == 11  # chain info rides the probe

    def test_xfer_unblock_moves_ownership(self, h):
        self._own(h)
        h.send(MessageKind.GETX, src=1, req_id=2)
        h.send(
            MessageKind.UNBLOCK, src=0, action="xfer", requester=1, req_id=2
        )
        assert h.directory.owner_of(BLOCK) == 1

    def test_downgrade_unblock_makes_both_sharers(self, h):
        self._own(h)
        h.send(MessageKind.GETS, src=1, req_id=2)
        h.send(
            MessageKind.UNBLOCK, src=0, action="downgrade", requester=1, req_id=2
        )
        assert h.directory.owner_of(BLOCK) is None
        assert h.directory.sharers_of(BLOCK) == {0, 1}

    def test_cancel_leaves_state_untouched(self, h):
        """The CHATS SpecResp path: the directory must remain oblivious."""
        self._own(h)
        h.send(MessageKind.GETS, src=1, req_id=2)
        h.send(MessageKind.CANCEL, src=0, requester=1, req_id=2)
        assert h.directory.owner_of(BLOCK) == 0
        assert 1 not in h.directory.sharers_of(BLOCK)
        assert not h.directory._entry(BLOCK).busy

    def test_aborted_unblock_heals_from_memory(self, h):
        self._own(h)
        h.memory.write_word(BLOCK * 64, 5)
        h.send(MessageKind.GETX, src=1, req_id=2)
        h.send(
            MessageKind.UNBLOCK,
            src=0,
            action="aborted",
            requester=1,
            exclusive=True,
            req_id=2,
        )
        grant = h.to_core(1)[-1]
        assert grant.kind is MessageKind.DATA_E
        assert grant.data[0] == 5  # non-speculative memory data
        assert h.directory.owner_of(BLOCK) == 1

    def test_not_present_heal_for_reads(self, h):
        self._own(h)
        h.send(MessageKind.GETS, src=1, req_id=2)
        h.send(
            MessageKind.UNBLOCK,
            src=0,
            action="not_present",
            requester=1,
            exclusive=False,
            req_id=2,
        )
        assert h.to_core(1)[-1].kind is MessageKind.DATA
        assert 1 in h.directory.sharers_of(BLOCK)


class TestInvalidationRounds:
    def _share(self, h, *cores):
        for i, core in enumerate(cores):
            h.send(MessageKind.GETS, src=core, req_id=100 + i)
            h.send(MessageKind.UNBLOCK, src=core, action="recv")
        h.clear()

    def test_getx_invalidates_sharers(self, h):
        self._share(h, 0, 1, 2)
        h.send(MessageKind.GETX, src=0, req_id=2)
        invs = [(dst, m) for dst, m in h.delivered if m.kind is MessageKind.INV]
        assert {dst for dst, _ in invs} == {1, 2}  # requester excluded
        (_, first), (_, second) = invs
        assert first is second  # one record for the round
        for core in (1, 2):
            h.send(MessageKind.ACK, src=core, action="invalidated", req_id=2)
        grant = h.to_core(0)[-1]
        assert grant.kind is MessageKind.DATA_E
        assert h.directory.owner_of(BLOCK) == 0
        assert h.directory.sharers_of(BLOCK) == set()

    def test_refused_round_keeps_refusers(self, h):
        """A sharer that answered with SpecResp/NACK stays a sharer and
        no ownership is granted."""
        self._share(h, 0, 1, 2)
        h.send(MessageKind.GETX, src=0, req_id=2)
        h.send(MessageKind.ACK, src=1, action="refused", req_id=2)
        h.send(MessageKind.ACK, src=2, action="invalidated", req_id=2)
        assert h.directory.owner_of(BLOCK) is None
        assert h.directory.sharers_of(BLOCK) == {0, 1}
        # No exclusive grant was sent to the requester.
        assert all(m.kind is not MessageKind.DATA_E for m in h.to_core(0))

    def test_stale_ack_outside_round_ignored(self, h):
        self._share(h, 0)
        h.send(MessageKind.ACK, src=3, action="invalidated", req_id=9)
        assert h.directory.sharers_of(BLOCK) == {0}


class TestWriteback:
    def test_writeback_clears_ownership(self, h):
        h.send(MessageKind.GETX, src=0)
        h.send(MessageKind.UNBLOCK, src=0, action="recv")
        h.send(MessageKind.WRITEBACK, src=0)
        assert h.directory.owner_of(BLOCK) is None

    def test_writeback_from_non_owner_ignored(self, h):
        h.send(MessageKind.GETX, src=0)
        h.send(MessageKind.UNBLOCK, src=0, action="recv")
        h.send(MessageKind.WRITEBACK, src=2)
        assert h.directory.owner_of(BLOCK) == 0


class TestLatency:
    def test_cold_miss_pays_memory_latency(self, h):
        h.send(MessageKind.GETS, src=0)
        # link + memory_latency: the DATA arrives late.
        assert h.engine.now >= h.config.memory_latency

    def test_warm_miss_pays_l3_latency(self, h):
        h.send(MessageKind.GETS, src=0)
        h.send(MessageKind.UNBLOCK, src=0, action="recv")
        start = h.engine.now
        h.send(MessageKind.GETS, src=1, req_id=2)
        assert h.engine.now - start < h.config.memory_latency
        assert h.directory.memory_fetches == 1
