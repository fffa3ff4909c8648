"""Address geometry helpers.

The simulator's memory is flat.  Addresses are byte addresses; blocks
are the coherence/versioning granularity (64 bytes by default) and words
are the value granularity (8 bytes).  All helpers are pure functions
parameterised by a :class:`Geometry` so tests can shrink the block size.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Geometry:
    """Block/word partitioning of the byte address space."""

    block_bytes: int = 64
    word_bytes: int = 8

    def __post_init__(self) -> None:
        if self.block_bytes <= 0 or self.word_bytes <= 0:
            raise ValueError("sizes must be positive")
        if self.block_bytes % self.word_bytes:
            raise ValueError("block size must be a multiple of word size")
        for size in (self.block_bytes, self.word_bytes):
            if size & (size - 1):
                raise ValueError("sizes must be powers of two")

    @property
    def words_per_block(self) -> int:
        return self.block_bytes // self.word_bytes

    def block_of(self, addr: int) -> int:
        """Block number containing byte address ``addr``."""
        return addr // self.block_bytes


DEFAULT_GEOMETRY = Geometry()


class AddressSpace:
    """A bump allocator handing out disjoint simulated memory regions.

    Workloads use this to lay out their shared data structures.  Allocations
    are block-aligned by default so that independent objects do not falsely
    conflict through block sharing — except when a workload *wants* false
    sharing, in which case it can allocate unaligned.
    """

    def __init__(self, geometry: Geometry = DEFAULT_GEOMETRY, base: int = 0x1000):
        self._geometry = geometry
        self._next = base

    @property
    def geometry(self) -> Geometry:
        return self._geometry

    def alloc(self, nbytes: int, align_block: bool = True) -> int:
        """Reserve ``nbytes`` and return the base byte address."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        if align_block:
            rem = self._next % self._geometry.block_bytes
            if rem:
                self._next += self._geometry.block_bytes - rem
        base = self._next
        self._next += nbytes
        return base

    def alloc_words(self, nwords: int, *, align_block: bool = True) -> int:
        """Reserve ``nwords`` words and return the base byte address."""
        return self.alloc(nwords * self._geometry.word_bytes, align_block)

    def word_addr(self, base: int, index: int) -> int:
        """Byte address of the ``index``-th word of a region at ``base``."""
        return base + index * self._geometry.word_bytes
