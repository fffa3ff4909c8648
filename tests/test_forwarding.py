"""Unit tests for forward-eligibility classes (Section VI-D)."""

import pytest

from repro.htm.txstate import TxState
from repro.mem.address import Geometry
from repro.mem.memory import MainMemory
from repro.sim.config import table2_config
from repro.systems import ForwardClass, paper
from repro.systems.forwardrules import block_is_forwardable

BLOCK = 9


@pytest.fixture
def tx():
    return TxState(
        core_id=0,
        epoch=1,
        memory=MainMemory(Geometry()),
        htm=table2_config(paper.CHATS),
    )


def test_written_block_forwardable_in_all_classes(tx):
    tx.track_write(BLOCK)
    for fc in ForwardClass:
        assert block_is_forwardable(fc, tx, BLOCK, lambda b: False)


def test_read_block_only_in_r_classes(tx):
    tx.track_read(BLOCK)
    assert block_is_forwardable(ForwardClass.RW, tx, BLOCK, lambda b: False)
    assert not block_is_forwardable(ForwardClass.W, tx, BLOCK, lambda b: False)
    assert block_is_forwardable(
        ForwardClass.R_RESTRICT_W, tx, BLOCK, lambda b: False
    )


def test_restricted_class_blocks_imminent_writes(tx):
    tx.track_read(BLOCK)
    assert not block_is_forwardable(
        ForwardClass.R_RESTRICT_W, tx, BLOCK, lambda b: b == BLOCK
    )
    # ...but only for read-only blocks: written data is already final in
    # the speculative store.
    tx.track_write(BLOCK)
    assert block_is_forwardable(
        ForwardClass.R_RESTRICT_W, tx, BLOCK, lambda b: b == BLOCK
    )


def test_untouched_block_never_forwardable(tx):
    for fc in ForwardClass:
        assert not block_is_forwardable(fc, tx, BLOCK, lambda b: False)


def test_spec_received_block_never_forwardable(tx):
    """Section IV-A: a speculatively received block cannot be re-forwarded
    — the consumer is not the coherence owner."""
    tx.track_write(BLOCK)
    tx.vsb.insert(BLOCK, (0,) * 8)
    for fc in ForwardClass:
        assert not block_is_forwardable(fc, tx, BLOCK, lambda b: False)


def test_validated_block_becomes_forwardable(tx):
    tx.track_write(BLOCK)
    tx.vsb.insert(BLOCK, (0,) * 8)
    tx.vsb.retire(BLOCK)
    assert block_is_forwardable(ForwardClass.W, tx, BLOCK, lambda b: False)
