"""Value storage: the committed memory image and speculative overlays.

The simulator separates *timing* (caches, directory, network) from *values*.
Values live here:

* :class:`MainMemory` — the committed image, a word → int mapping.  This is
  what the L2/L3/DRAM of the paper's machine would hold: non-speculative
  data is written back to L2 before a block is speculatively modified in L1,
  so aborting is just discarding the L1 copies.
* :class:`SpeculativeStore` — one per in-flight transaction: the words the
  transaction has written (its redo image) plus the blocks it received
  speculatively from other transactions.

``block_value`` materialises the 8-word content of a block as seen by a
given transaction; it is the payload carried by data and SpecResp messages
and the quantity compared during value-based validation.  Both classes are
``__slots__`` records with the geometry constants (word size, words per
block) bound as plain ints at construction — ``block_value`` and the word
accessors sit on the coherence hot path.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .address import Geometry


BlockValue = Tuple[int, ...]


class MainMemory:
    """Committed word store.  Unwritten words read as zero."""

    __slots__ = ("_geometry", "_words", "_wb", "_wpb")

    def __init__(self, geometry: Geometry):
        self._geometry = geometry
        self._words: Dict[int, int] = {}
        self._wb = geometry.word_bytes
        self._wpb = geometry.words_per_block

    @property
    def geometry(self) -> Geometry:
        return self._geometry

    def read_word(self, addr: int) -> int:
        return self._words.get(addr // self._wb, 0)

    def write_word(self, addr: int, value: int) -> None:
        self._words[addr // self._wb] = value

    def block_value(self, block: int) -> BlockValue:
        """Committed content of ``block`` as a word tuple."""
        get = self._words.get
        first = block * self._wpb
        return tuple([get(w, 0) for w in range(first, first + self._wpb)])

    def apply_block(self, block: int, value: BlockValue) -> None:
        """Overwrite the committed content of ``block``."""
        words = self._geometry.words_in_block(block)
        if len(value) != len(words):
            raise ValueError("block value has wrong arity")
        for word, val in zip(words, value):
            self._words[word] = val

    def snapshot(self) -> Dict[int, int]:
        """Copy of the committed image (for test oracles)."""
        return dict(self._words)


class SpeculativeStore:
    """Redo image of one transaction attempt.

    Holds (a) words written by the transaction and (b) whole blocks received
    speculatively from other transactions (which enter the write set per
    Section III-A).  Reads hit the overlay first and fall back to committed
    memory.
    """

    __slots__ = (
        "_memory",
        "_geometry",
        "_words",
        "_mem_words",
        "_received_blocks",
        "_wb",
        "_wpb",
    )

    def __init__(self, memory: MainMemory):
        self._memory = memory
        self._geometry = memory.geometry
        self._words: Dict[int, int] = {}
        # The committed image dict is never rebound, only mutated, so the
        # overlay can alias it for fallback reads.
        self._mem_words = memory._words
        # Blocks whose *base* content came from a SpecResp.  Their words are
        # expanded into ``_words`` at receive time; the set is kept for
        # bookkeeping/stats.
        self._received_blocks: Dict[int, BlockValue] = {}
        self._wb = memory._wb
        self._wpb = memory._wpb

    def __len__(self) -> int:
        return len(self._words)

    def read_word(self, addr: int) -> int:
        word = addr // self._wb
        value = self._words.get(word)
        if value is not None:
            return value
        return self._mem_words.get(word, 0)

    def write_word(self, addr: int, value: int) -> None:
        self._words[addr // self._wb] = value

    def has_word(self, addr: int) -> bool:
        return addr // self._wb in self._words

    def block_value(self, block: int) -> BlockValue:
        """Content of ``block`` as this transaction sees it."""
        own = self._words.get
        mem = self._mem_words.get
        first = block * self._wpb
        return tuple(
            [own(w, mem(w, 0)) for w in range(first, first + self._wpb)]
        )

    def install_received_block(self, block: int, value: BlockValue) -> None:
        """Install a speculatively received block into the overlay.

        The consumer works on this copy as if it owned the block; a pristine
        copy is separately retained in the VSB for validation.
        """
        self._received_blocks[block] = value
        for word, val in zip(self._geometry.words_in_block(block), value):
            # Do not clobber words the transaction already wrote: its own
            # stores are younger than the forwarded base copy.
            self._words.setdefault(word, val)

    def received_block_origin(self, block: int) -> Optional[BlockValue]:
        return self._received_blocks.get(block)

    def written_blocks(self) -> set:
        """Blocks containing at least one speculatively written word."""
        block_of_word = self._geometry.block_of_word
        return {block_of_word(w) for w in self._words}

    def commit(self) -> None:
        """Flush the redo image into committed memory (atomic commit)."""
        self._mem_words.update(self._words)
        self._words.clear()
        self._received_blocks.clear()

    def discard(self) -> None:
        """Drop the redo image (abort)."""
        self._words.clear()
        self._received_blocks.clear()
