"""Value storage: the committed memory image and speculative overlays.

The simulator separates *timing* (caches, directory, network) from *values*.
Values live here, one word list per block, because the block is the unit
of value traffic:

* :class:`MainMemory` — the committed image, a block → ``list[int]``
  mapping.  This is what the L2/L3/DRAM of the paper's machine would hold:
  non-speculative data is written back to L2 before a block is
  speculatively modified in L1, so aborting is just discarding the L1
  copies.
* :class:`SpeculativeStore` — one per in-flight transaction: its redo
  image, a block → ``list`` mapping in which ``None`` marks a word the
  attempt has not written.  Such a word reads through to committed memory
  when it is read, when the block's value is taken and at commit, so
  another core's commit of other words of the block stays visible.  A
  block received speculatively from another transaction fills the holes.

``block_value`` gives the content of a block as a word tuple; it is the
payload carried by data, SpecResp and writeback messages and the quantity
compared during value-based validation.  For a committed or fully
overlaid block it is one lookup plus a tuple copy.  Word accessors are
one lookup plus an index computed with shifts (:class:`Geometry` forces
power-of-two sizes).  Both classes are ``__slots__`` records with the
shifts bound as plain ints at construction: these methods sit on the
coherence hot path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .address import Geometry


BlockValue = Tuple[int, ...]


class MainMemory:
    """Committed block store.  Unwritten words read as zero."""

    __slots__ = (
        "_geometry",
        "_blocks",
        "_bshift",
        "_wshift",
        "_wmask",
        "_wpb",
        "_zero",
    )

    def __init__(self, geometry: Geometry):
        self._geometry = geometry
        self._blocks: Dict[int, List[int]] = {}
        self._bshift = geometry.block_bytes.bit_length() - 1
        self._wshift = geometry.word_bytes.bit_length() - 1
        self._wpb = geometry.words_per_block
        self._wmask = self._wpb - 1
        self._zero: BlockValue = (0,) * self._wpb

    @property
    def geometry(self) -> Geometry:
        return self._geometry

    def read_word(self, addr: int) -> int:
        words = self._blocks.get(addr >> self._bshift)
        if words is None:
            return 0
        return words[(addr >> self._wshift) & self._wmask]

    def write_word(self, addr: int, value: int) -> None:
        words = self._blocks.get(addr >> self._bshift)
        if words is None:
            words = self._blocks[addr >> self._bshift] = [0] * self._wpb
        words[(addr >> self._wshift) & self._wmask] = value

    def block_value(self, block: int) -> BlockValue:
        """Committed content of ``block`` as a word tuple."""
        words = self._blocks.get(block)
        if words is None:
            return self._zero
        return tuple(words)

    def apply_block(self, block: int, value: BlockValue) -> None:
        """Overwrite the committed content of ``block``."""
        if len(value) != self._wpb:
            raise ValueError("block value has wrong arity")
        self._blocks[block] = list(value)


class SpeculativeStore:
    """Redo image of one transaction attempt.

    Holds, per block, (a) words written by the transaction and (b) whole
    blocks received speculatively from other transactions (which enter the
    write set per Section III-A).  ``None`` marks a word the attempt holds
    no value for; reads of it fall back to committed memory.
    """

    __slots__ = (
        "_blocks",
        "_mem_blocks",
        "_bshift",
        "_wshift",
        "_wmask",
        "_wpb",
        "_zero",
    )

    def __init__(self, memory: MainMemory):
        self._blocks: Dict[int, List[Optional[int]]] = {}
        # The committed image dict is never rebound, only mutated, so the
        # overlay can alias it for fallback reads.
        self._mem_blocks = memory._blocks
        self._bshift = memory._bshift
        self._wshift = memory._wshift
        self._wmask = memory._wmask
        self._wpb = memory._wpb
        self._zero = memory._zero

    def read_word(self, addr: int) -> int:
        block = addr >> self._bshift
        index = (addr >> self._wshift) & self._wmask
        words = self._blocks.get(block)
        if words is not None:
            value = words[index]
            if value is not None:
                return value
        words = self._mem_blocks.get(block)
        if words is None:
            return 0
        return words[index]

    def write_word(self, addr: int, value: int) -> None:
        words = self._blocks.get(addr >> self._bshift)
        if words is None:
            words = self._blocks[addr >> self._bshift] = [None] * self._wpb
        words[(addr >> self._wshift) & self._wmask] = value

    def block_value(self, block: int) -> BlockValue:
        """Content of ``block`` as this transaction sees it."""
        words = self._blocks.get(block)
        if words is None:
            words = self._mem_blocks.get(block)
            return self._zero if words is None else tuple(words)
        if None not in words:
            return tuple(words)
        committed = self._mem_blocks.get(block, self._zero)
        return tuple([c if w is None else w for w, c in zip(words, committed)])

    def install_received_block(self, block: int, value: BlockValue) -> None:
        """Install a speculatively received block into the overlay.

        The consumer works on this copy as if it owned the block; a pristine
        copy is separately retained in the VSB for validation.
        """
        words = self._blocks.get(block)
        if words is None:
            self._blocks[block] = list(value)
            return
        # Do not clobber words the transaction already wrote: its own
        # stores are younger than the forwarded base copy.
        for i, own in enumerate(words):
            if own is None:
                words[i] = value[i]

    def commit(self) -> None:
        """Flush the redo image into committed memory (atomic commit)."""
        mem = self._mem_blocks
        for block, words in self._blocks.items():
            committed = mem.get(block)
            if committed is None:
                mem[block] = [0 if w is None else w for w in words]
            else:
                for i, w in enumerate(words):
                    if w is not None:
                        committed[i] = w
        self._blocks.clear()

    def discard(self) -> None:
        """Drop the redo image (abort)."""
        self._blocks.clear()
