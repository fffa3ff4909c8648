"""Unit + property tests for value storage (committed image and
speculative overlays)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.address import Geometry
from repro.mem.memory import MainMemory, SpeculativeStore


class TestMainMemory:
    def test_unwritten_words_read_zero(self, memory):
        assert memory.read_word(0x1234 & ~7) == 0

    def test_write_read_roundtrip(self, memory):
        memory.write_word(0x100, 42)
        assert memory.read_word(0x100) == 42

    def test_word_aliasing_within_word(self, memory):
        memory.write_word(0x100, 7)
        # Any byte address within the word reads the word's value.
        assert memory.read_word(0x101) == 7
        assert memory.read_word(0x107) == 7

    def test_block_value_arity(self, memory):
        assert len(memory.block_value(5)) == 8

    def test_block_value_content(self, memory):
        memory.write_word(0x40, 1)  # block 1, word 8
        memory.write_word(0x78, 9)  # block 1, word 15
        assert memory.block_value(1) == (1, 0, 0, 0, 0, 0, 0, 9)

    def test_apply_block(self, memory):
        memory.apply_block(2, (1, 2, 3, 4, 5, 6, 7, 8))
        assert memory.read_word(0x80) == 1
        assert memory.read_word(0xB8) == 8

    def test_apply_block_wrong_arity(self, memory):
        with pytest.raises(ValueError):
            memory.apply_block(2, (1, 2))

    def test_snapshot_is_a_copy(self, memory):
        # A block value is a snapshot: the VSB keeps the one a SpecResp
        # carried, so a later store must not show through it.
        memory.write_word(0x100, 1)
        snap = memory.block_value(4)
        memory.write_word(0x100, 2)
        assert snap[0] == 1
        assert memory.block_value(4)[0] == 2


class TestSpeculativeStore:
    def test_reads_fall_through_to_committed(self, memory):
        memory.write_word(0x100, 5)
        store = SpeculativeStore(memory)
        assert store.read_word(0x100) == 5

    def test_writes_shadow_committed(self, memory):
        memory.write_word(0x100, 5)
        store = SpeculativeStore(memory)
        store.write_word(0x100, 9)
        assert store.read_word(0x100) == 9
        assert memory.read_word(0x100) == 5  # not yet visible

    def test_commit_publishes(self, memory):
        store = SpeculativeStore(memory)
        store.write_word(0x100, 9)
        store.commit()
        assert memory.read_word(0x100) == 9
        # The overlay is empty again: a later commit by another core shows.
        memory.write_word(0x100, 3)
        assert store.read_word(0x100) == 3

    def test_discard_rolls_back(self, memory):
        memory.write_word(0x100, 5)
        store = SpeculativeStore(memory)
        store.write_word(0x100, 9)
        store.discard()
        assert store.read_word(0x100) == 5
        assert memory.read_word(0x100) == 5

    def test_block_value_merges_overlay(self, memory):
        memory.write_word(0x40, 1)
        store = SpeculativeStore(memory)
        store.write_word(0x48, 2)
        assert store.block_value(1)[:2] == (1, 2)

    def test_install_received_block(self, memory):
        store = SpeculativeStore(memory)
        store.install_received_block(1, (9, 8, 7, 6, 5, 4, 3, 2))
        assert store.read_word(0x40) == 9
        assert store.block_value(1) == (9, 8, 7, 6, 5, 4, 3, 2)
        # The received copy shadows committed memory until commit.
        memory.write_word(0x48, 100)
        assert store.read_word(0x48) == 8

    def test_install_does_not_clobber_own_writes(self, memory):
        # The transaction's own (younger) stores take precedence over the
        # forwarded base copy — store-buffer forwarding semantics.
        store = SpeculativeStore(memory)
        store.write_word(0x40, 111)
        store.install_received_block(1, (9, 8, 7, 6, 5, 4, 3, 2))
        assert store.read_word(0x40) == 111
        assert store.read_word(0x48) == 8

    def test_unwritten_words_see_later_commits(self, memory):
        # An overlay holds only the words the attempt wrote: the other
        # words of the block still read through to committed memory, so a
        # commit of them by another core between the write and the reads
        # is not lost.
        store = SpeculativeStore(memory)
        store.write_word(0x40, 1)
        memory.write_word(0x48, 7)
        assert store.read_word(0x48) == 7
        assert store.block_value(1)[:2] == (1, 7)
        store.commit()
        assert memory.block_value(1)[:2] == (1, 7)

    @given(
        writes=st.dictionaries(
            st.integers(min_value=0, max_value=63),
            st.integers(min_value=0, max_value=2**32),
            max_size=20,
        )
    )
    def test_commit_equals_direct_writes(self, writes):
        """Committing an overlay must equal applying the writes directly."""
        g = Geometry()
        mem_a, mem_b = MainMemory(g), MainMemory(g)
        store = SpeculativeStore(mem_a)
        for word, value in writes.items():
            store.write_word(word * 8, value)
            mem_b.write_word(word * 8, value)
        store.commit()
        for block in range(8):
            assert mem_a.block_value(block) == mem_b.block_value(block)

    @given(
        base=st.tuples(*[st.integers(0, 100)] * 8),
        overlay=st.dictionaries(st.integers(0, 7), st.integers(0, 100), max_size=8),
    )
    def test_block_value_overlay_property(self, base, overlay):
        g = Geometry()
        memory = MainMemory(g)
        memory.apply_block(0, base)
        store = SpeculativeStore(memory)
        for idx, value in overlay.items():
            store.write_word(idx * 8, value)
        merged = store.block_value(0)
        for i in range(8):
            assert merged[i] == overlay.get(i, base[i])


class _ReferenceStore:
    """Word → int model of an overlay: the semantics the block image must
    keep.  ``words`` maps word numbers the attempt holds a value for;
    every other word reads committed memory (``memory``, also word →
    int) at the time of the read."""

    def __init__(self, memory, geometry):
        self.memory = memory
        self.words = {}
        self.wb = geometry.word_bytes
        self.wpb = geometry.words_per_block

    def read_word(self, addr):
        word = addr // self.wb
        return self.words.get(word, self.memory.get(word, 0))

    def write_word(self, addr, value):
        self.words[addr // self.wb] = value

    def block_value(self, block):
        first = block * self.wpb
        return tuple(
            self.words.get(w, self.memory.get(w, 0))
            for w in range(first, first + self.wpb)
        )

    def install_received_block(self, block, value):
        first = block * self.wpb
        for word, val in zip(range(first, first + self.wpb), value):
            self.words.setdefault(word, val)

    def commit(self):
        self.memory.update(self.words)
        self.words.clear()

    def discard(self):
        self.words.clear()


BLOCKS = 3
VALUES = st.integers(0, 4)  # small, so 0 (the unwritten default) recurs


def _operations(geometry):
    addrs = st.integers(0, BLOCKS * geometry.block_bytes - 1)
    blocks = st.integers(0, BLOCKS - 1)
    store = st.sampled_from((0, 1))
    value = st.tuples(*[VALUES] * geometry.words_per_block)
    return st.lists(
        st.one_of(
            st.tuples(st.just("write_word"), store, addrs, VALUES),
            st.tuples(st.just("read_word"), store, addrs),
            st.tuples(st.just("block_value"), store, blocks),
            st.tuples(st.just("install_received_block"), store, blocks, value),
            st.tuples(st.just("commit"), store),
            st.tuples(st.just("discard"), store),
            # Another core commits a word: a direct store to memory.
            st.tuples(st.just("memory_write"), st.none(), addrs, VALUES),
        ),
        max_size=40,
    )


class TestAgainstWordModel:
    """Random operation sequences on two overlays over one committed
    image, interleaved with direct stores to committed memory, must match
    the word → int model at every read and at the end."""

    @pytest.mark.parametrize(
        "geometry",
        [Geometry(), Geometry(block_bytes=16, word_bytes=4)],
        ids=["64B-8B", "16B-4B"],
    )
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_word_model(self, geometry, data):
        ops = data.draw(_operations(geometry))
        memory = MainMemory(geometry)
        stores = [SpeculativeStore(memory), SpeculativeStore(memory)]
        ref_memory = {}
        refs = [_ReferenceStore(ref_memory, geometry) for _ in stores]
        for op in ops:
            name, which, *args = op
            if name == "memory_write":
                memory.write_word(*args)
                ref_memory[args[0] // geometry.word_bytes] = args[1]
                continue
            got = getattr(stores[which], name)(*args)
            want = getattr(refs[which], name)(*args)
            assert got == want, op
        for block in range(BLOCKS):
            first = block * geometry.words_per_block
            assert memory.block_value(block) == tuple(
                ref_memory.get(w, 0)
                for w in range(first, first + geometry.words_per_block)
            )
            for store, ref in zip(stores, refs):
                assert store.block_value(block) == ref.block_value(block)
