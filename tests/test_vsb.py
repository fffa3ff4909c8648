"""Unit + property tests for the Validation State Buffer."""

import pytest
from hypothesis import given, strategies as st

from repro.core.vsb import ValidationStateBuffer, VSBEntry

BLOCK_A = (1, 2, 3, 4, 5, 6, 7, 8)
BLOCK_B = (8, 7, 6, 5, 4, 3, 2, 1)


class TestBasics:
    def test_empty_on_creation(self):
        vsb = ValidationStateBuffer(4)
        assert vsb.empty and not vsb.full
        assert vsb.occupancy() == 0

    def test_insert_and_lookup(self):
        vsb = ValidationStateBuffer(4)
        assert vsb.insert(10, BLOCK_A)
        assert vsb.contains(10)
        assert vsb.lookup(10) == BLOCK_A
        assert vsb.lookup(11) is None

    def test_duplicate_insert_keeps_first_copy(self):
        vsb = ValidationStateBuffer(4)
        vsb.insert(10, BLOCK_A)
        assert vsb.insert(10, BLOCK_B)  # reports success, first copy wins
        assert vsb.lookup(10) == BLOCK_A
        assert vsb.occupancy() == 1

    def test_full_buffer_rejects(self):
        vsb = ValidationStateBuffer(2)
        assert vsb.insert(1, BLOCK_A)
        assert vsb.insert(2, BLOCK_A)
        assert vsb.full
        assert not vsb.insert(3, BLOCK_A)

    def test_retire(self):
        vsb = ValidationStateBuffer(2)
        vsb.insert(1, BLOCK_A)
        vsb.retire(1)
        assert vsb.empty
        with pytest.raises(KeyError):
            vsb.retire(1)

    def test_retire_frees_slot(self):
        vsb = ValidationStateBuffer(1)
        vsb.insert(1, BLOCK_A)
        vsb.retire(1)
        assert vsb.insert(2, BLOCK_B)

    def test_clear(self):
        vsb = ValidationStateBuffer(4)
        vsb.insert(1, BLOCK_A)
        vsb.insert(2, BLOCK_B)
        vsb.clear()
        assert vsb.empty
        assert vsb.blocks() == []

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            ValidationStateBuffer(0)


class TestRoundRobin:
    def test_walks_all_entries(self):
        vsb = ValidationStateBuffer(4)
        for block in (1, 2, 3):
            vsb.insert(block, BLOCK_A)
        seen = [vsb.next_to_validate().block for _ in range(3)]
        assert sorted(seen) == [1, 2, 3]

    def test_cycles_back(self):
        vsb = ValidationStateBuffer(4)
        vsb.insert(1, BLOCK_A)
        vsb.insert(2, BLOCK_A)
        seen = [vsb.next_to_validate().block for _ in range(4)]
        assert seen == [1, 2, 1, 2]

    def test_empty_returns_none(self):
        assert ValidationStateBuffer(4).next_to_validate() is None

    def test_rotation_fair_with_value_equal_entries(self):
        """Regression: the pointer used to advance via
        ``list.index(entry)``; VSBEntry compares by value, so two equal
        entries in different slots rewound the pointer and starved the
        slots after the first twin."""
        vsb = ValidationStateBuffer(3)
        vsb._entries[0] = VSBEntry(True, 5, BLOCK_A)
        vsb._entries[1] = VSBEntry(True, 5, BLOCK_A)  # value-equal twin
        vsb._entries[2] = VSBEntry(True, 6, BLOCK_B)
        picked = [vsb.next_to_validate() for _ in range(6)]
        slots = [
            next(i for i, e in enumerate(vsb._entries) if e is p)
            for p in picked
        ]
        # Strict round-robin over slots; the buggy index() walk yielded
        # [0, 1, 1, 1, ...] and never validated slot 2.
        assert slots == [0, 1, 2, 0, 1, 2]

    def test_rotation_fair_across_retire_reinsert(self):
        """Pointer stays fair when slots are recycled mid-rotation."""
        vsb = ValidationStateBuffer(3)
        for block in (1, 2, 3):
            vsb.insert(block, BLOCK_A)
        assert vsb.next_to_validate().block == 1
        vsb.retire(1)
        vsb.insert(4, BLOCK_A)  # lands in slot 0
        assert vsb.next_to_validate().block == 2
        assert vsb.next_to_validate().block == 3
        assert vsb.next_to_validate().block == 4

    def test_skips_retired(self):
        vsb = ValidationStateBuffer(4)
        vsb.insert(1, BLOCK_A)
        vsb.insert(2, BLOCK_A)
        vsb.retire(1)
        assert vsb.next_to_validate().block == 2
        assert vsb.next_to_validate().block == 2


class TestProperties:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["insert", "retire"]), st.integers(0, 9)),
            max_size=60,
        ),
        size=st.integers(1, 6),
    )
    def test_occupancy_bounded_and_consistent(self, ops, size):
        vsb = ValidationStateBuffer(size)
        shadow = {}
        for op, block in ops:
            if op == "insert":
                ok = vsb.insert(block, BLOCK_A)
                if block in shadow:
                    assert ok
                elif len(shadow) < size:
                    assert ok
                    shadow[block] = BLOCK_A
                else:
                    assert not ok
            else:
                if block in shadow:
                    vsb.retire(block)
                    del shadow[block]
        assert vsb.occupancy() == len(shadow)
        assert sorted(vsb.blocks()) == sorted(shadow)
        assert vsb.full == (len(shadow) == size)

    @given(blocks=st.sets(st.integers(0, 100), min_size=1, max_size=4))
    def test_round_robin_is_fair(self, blocks):
        """Every valid entry is selected once per cycle of the pointer."""
        vsb = ValidationStateBuffer(4)
        for b in blocks:
            vsb.insert(b, BLOCK_A)
        n = len(blocks)
        seen = [vsb.next_to_validate().block for _ in range(2 * n)]
        assert sorted(seen[:n]) == sorted(blocks)
        assert sorted(seen[n:]) == sorted(blocks)


class SlotScanVSB:
    """Reference model: the VSB as a plain slot scan, with no index."""

    def __init__(self, size):
        self.slots = [None] * size  # (block, data) or None
        self.ptr = 0

    def find(self, block):
        for i, slot in enumerate(self.slots):
            if slot is not None and slot[0] == block:
                return i
        return None

    def insert(self, block, data):
        if self.find(block) is not None:
            return True
        for i, slot in enumerate(self.slots):
            if slot is None:
                self.slots[i] = (block, data)
                return True
        return False

    def retire(self, block):
        i = self.find(block)
        if i is None:
            raise KeyError(block)
        self.slots[i] = None

    def clear(self):
        self.slots = [None] * len(self.slots)
        self.ptr = 0

    def next_to_validate(self):
        n = len(self.slots)
        for offset in range(n):
            i = (self.ptr + offset) % n
            if self.slots[i] is not None:
                self.ptr = (i + 1) % n
                return i
        return None


UNIVERSE = range(8)

vsb_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from(UNIVERSE)),
        st.tuples(st.just("retire"), st.sampled_from(UNIVERSE)),
        st.tuples(st.just("clear"), st.just(0)),
        st.tuples(st.just("next"), st.just(0)),
    ),
    max_size=80,
)


class TestIndexAgainstSlotScan:
    @given(ops=vsb_ops, size=st.integers(1, 5))
    def test_index_agrees_with_slot_scan(self, ops, size):
        """The block index must answer exactly as a scan of the slots
        would, and leave the slot-driven validation order untouched —
        across duplicate inserts, inserts into a full buffer, retires of
        absent blocks, clears and validation-pointer walks."""
        vsb = ValidationStateBuffer(size)
        ref = SlotScanVSB(size)
        for step, (op, block) in enumerate(ops):
            if op == "insert":
                data = (step,)  # distinct copies: first copy must win
                assert vsb.insert(block, data) == ref.insert(block, data)
            elif op == "retire":
                if ref.find(block) is None:
                    with pytest.raises(KeyError):
                        vsb.retire(block)
                else:
                    ref.retire(block)
                    vsb.retire(block)
            elif op == "clear":
                vsb.clear()
                ref.clear()
            else:
                entry = vsb.next_to_validate()
                slot = ref.next_to_validate()
                if slot is None:
                    assert entry is None
                else:
                    assert entry is vsb._entries[slot]
                    assert entry.block == ref.slots[slot][0]
            live = [s for s in ref.slots if s is not None]
            for b in UNIVERSE:
                i = ref.find(b)
                assert vsb.contains(b) == (i is not None)
                assert vsb.lookup(b) == (
                    ref.slots[i][1] if i is not None else None
                )
            assert vsb.occupancy() == len(live)
            assert vsb.blocks() == [s[0] for s in live]
            assert vsb.empty == (not live)
            assert vsb.full == (len(live) == size)
