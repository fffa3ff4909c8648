"""Unit tests for per-attempt transaction state."""

import pytest

from repro.htm.stats import AbortReason
from repro.htm.txstate import TxState, TxStatus
from repro.sim.config import table2_config
from repro.systems import paper


def make_tx(memory, *, system=paper.CHATS, power=False) -> TxState:
    return TxState(
        core_id=0,
        epoch=1,
        memory=memory,
        htm=table2_config(system),
        power=power,
    )


class TestTracking:
    def test_fresh_state(self, memory):
        tx = make_tx(memory)
        assert tx.active
        assert tx.status is TxStatus.ACTIVE
        assert not tx.reads(1) and not tx.writes(1)

    def test_track_read(self, memory):
        tx = make_tx(memory)
        tx.track_read(7)
        assert tx.reads(7) and not tx.writes(7)

    def test_track_write_implies_read_permission(self, memory):
        tx = make_tx(memory)
        tx.track_write(7)
        assert tx.writes(7) and tx.reads(7)

    def test_conflict_semantics(self, memory):
        tx = make_tx(memory)
        tx.track_read(1)
        tx.track_write(2)
        # Exclusive probes conflict with reads and writes.
        assert tx.conflicts_with_read(1)
        assert tx.conflicts_with_read(2)
        # Read probes conflict only with writes.
        assert not tx.conflicts_with_write(1)
        assert tx.conflicts_with_write(2)
        assert not tx.conflicts_with_read(3)

    def test_footprint(self, memory):
        tx = make_tx(memory)
        tx.track_read(1)
        tx.track_write(2)
        assert tx.footprint() == {1, 2}


class TestCommit:
    def test_commit_publishes_store(self, memory):
        tx = make_tx(memory)
        tx.track_write(1)
        tx.store.write_word(0x40, 99)
        assert tx.can_commit()
        tx.commit()
        assert tx.status is TxStatus.COMMITTED
        assert memory.read_word(0x40) == 99
        assert tx.pic.value is None

    def test_commit_blocked_by_pending_vsb(self, memory):
        tx = make_tx(memory)
        tx.vsb.insert(5, (0,) * 8)
        assert not tx.can_commit()
        with pytest.raises(RuntimeError):
            tx.commit()

    def test_commit_after_validation_drain(self, memory):
        tx = make_tx(memory)
        tx.vsb.insert(5, (0,) * 8)
        tx.vsb.retire(5)
        assert tx.can_commit()
        tx.commit()


class TestAbort:
    def test_abort_discards_store(self, memory):
        tx = make_tx(memory)
        tx.store.write_word(0x40, 99)
        tx.begin_abort(AbortReason.CONFLICT)
        assert tx.status is TxStatus.ABORTING
        assert tx.abort_reason is AbortReason.CONFLICT
        tx.finish_abort()
        assert tx.status is TxStatus.ABORTED
        assert memory.read_word(0x40) == 0

    def test_abort_clears_chain_state(self, memory):
        tx = make_tx(memory)
        tx.pic.value = 10
        tx.pic.cons = True
        tx.vsb.insert(5, (0,) * 8)
        tx.track_read(1)
        tx.track_write(2)
        tx.begin_abort(AbortReason.VALIDATION)
        tx.finish_abort()
        assert tx.pic.value is None and not tx.pic.cons
        assert tx.vsb.empty
        assert not tx.reads(1) and not tx.writes(2)

    def test_first_abort_reason_wins(self, memory):
        tx = make_tx(memory)
        tx.begin_abort(AbortReason.CONFLICT)
        tx.begin_abort(AbortReason.CYCLE)  # ignored: already dying
        assert tx.abort_reason is AbortReason.CONFLICT

    def test_abort_of_finished_tx_rejected(self, memory):
        tx = make_tx(memory)
        tx.commit()
        with pytest.raises(RuntimeError):
            tx.begin_abort(AbortReason.CONFLICT)


class TestRoles:
    def test_mark_forwarded_sets_levc_flags(self, memory):
        """LEVC's restrictions read the attempt record's flags."""
        tx = make_tx(memory)
        tx.mark_forwarded()
        assert tx.record.forwarded and tx.record.conflicted
        assert not tx.record.consumed

    def test_mark_consumed(self, memory):
        tx = make_tx(memory)
        tx.mark_consumed()
        assert tx.record.consumed and tx.record.conflicted
        assert not tx.record.forwarded

    def test_power_flag(self, memory):
        tx = make_tx(memory, power=True)
        assert tx.power

    def test_baseline_gets_dummy_vsb(self, memory):
        tx = make_tx(memory, system=paper.BASELINE)
        assert tx.vsb.size == 1  # placeholder; never used
