"""Unit + property tests for address geometry and the bump allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.address import AddressSpace, Geometry
from repro.mem.memory import MainMemory


class TestGeometry:
    def test_defaults(self):
        g = Geometry()
        assert g.block_bytes == 64
        assert g.word_bytes == 8
        assert g.words_per_block == 8

    def test_block_of(self):
        g = Geometry()
        assert g.block_of(0) == 0
        assert g.block_of(63) == 0
        assert g.block_of(64) == 1
        assert g.block_of(0x1000) == 64

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Geometry(block_bytes=48)

    def test_rejects_word_bigger_than_block(self):
        with pytest.raises(ValueError):
            Geometry(block_bytes=8, word_bytes=16)

    @given(st.integers(min_value=0, max_value=2**48))
    def test_word_and_block_consistent(self, addr):
        """The memory image files a byte address's word in the block
        ``block_of`` names, at the word's offset within it."""
        g = Geometry()
        memory = MainMemory(g)
        memory.write_word(addr, 1)
        value = memory.block_value(g.block_of(addr))
        assert value.index(1) == addr % g.block_bytes // g.word_bytes
        assert sum(value) == 1

    @given(st.integers(min_value=0, max_value=2**30))
    def test_word_in_its_block(self, addr):
        """Every byte of a word reads the word; its neighbours do not."""
        g = Geometry()
        memory = MainMemory(g)
        memory.write_word(addr, 1)
        first = addr - addr % g.word_bytes
        for byte in range(first, first + g.word_bytes):
            assert memory.read_word(byte) == 1
        assert memory.read_word(first + g.word_bytes) == 0
        if first:
            assert memory.read_word(first - 1) == 0


class TestAddressSpace:
    def test_allocations_disjoint(self):
        s = AddressSpace()
        a = s.alloc(100)
        b = s.alloc(100)
        assert b >= a + 100

    def test_block_alignment(self):
        s = AddressSpace()
        s.alloc(1)
        b = s.alloc(8)
        assert b % 64 == 0

    def test_unaligned_allocation(self):
        s = AddressSpace()
        a = s.alloc(8, align_block=False)
        b = s.alloc(8, align_block=False)
        assert b == a + 8

    def test_alloc_words(self):
        s = AddressSpace()
        base = s.alloc_words(4)
        assert s.word_addr(base, 3) == base + 24

    def test_rejects_empty_alloc(self):
        with pytest.raises(ValueError):
            AddressSpace().alloc(0)

    @given(st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=50))
    def test_no_overlap_property(self, sizes):
        s = AddressSpace()
        regions = []
        for n in sizes:
            base = s.alloc(n)
            regions.append((base, base + n))
        regions.sort()
        for (a0, a1), (b0, b1) in zip(regions, regions[1:]):
            assert a1 <= b0, "allocations must never overlap"
