"""Validation State Buffer (VSB) — Section IV-B.

The VSB keeps a pristine copy of every speculatively received block until
the speculation has been validated.  Each entry holds a valid bit, the
block address, and the 64-byte copy; the buffer has an *allocation* pointer
(next free entry) and a *validation* pointer (next entry to validate),
walked round-robin by the validation controller.

The storage cost dominates CHATS' 280-byte overhead:
4 entries x (64 B data + 42-bit tag + valid bit) ~ 278 B, plus the 5-bit
PiC and 1-bit Cons registers.

Besides the fixed slots the model keeps a block → entry index, so
membership (asked on every holder conflict, to refuse re-forwarding a
speculatively received block), lookup and retire are O(1) instead of a
slot scan.  The slots stay the source of truth for *order*: an insert
takes the lowest free slot and the validation pointer walks slots
round-robin, which fixes which block validates next and so every
simulation's result.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

BlockValue = Tuple[int, ...]


class VSBEntry:
    __slots__ = ("valid", "block", "data")

    def __init__(
        self,
        valid: bool = False,
        block: int = 0,
        data: Optional[BlockValue] = None,
    ):
        self.valid = valid
        self.block = block
        self.data = data


class ValidationStateBuffer:
    """Fixed-capacity buffer of pending speculative blocks.

    ``occupancy``/``empty``/``full`` are O(1) via the block index — the
    commit fence polls ``empty`` on every response.
    """

    __slots__ = ("_entries", "_validate_ptr", "_index")

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("VSB needs at least one entry")
        self._entries: List[VSBEntry] = [VSBEntry() for _ in range(size)]
        self._validate_ptr = 0
        #: Valid entries by block; kept in step with the slots by
        #: ``insert``, ``retire`` and ``clear``.
        self._index: Dict[int, VSBEntry] = {}

    @property
    def size(self) -> int:
        return len(self._entries)

    def occupancy(self) -> int:
        return len(self._index)

    @property
    def empty(self) -> bool:
        return not self._index

    @property
    def full(self) -> bool:
        return len(self._index) == len(self._entries)

    def contains(self, block: int) -> bool:
        return block in self._index

    def lookup(self, block: int) -> Optional[BlockValue]:
        entry = self._index.get(block)
        return entry.data if entry is not None else None

    def insert(self, block: int, data: BlockValue) -> bool:
        """Record a speculatively received block.  Returns False when the
        buffer is full (the holder should then have refused to forward —
        requests advertise ``can_consume`` — but races can still deliver an
        unwanted SpecResp, which the consumer simply drops)."""
        if block in self._index:
            return True  # duplicate delivery; first copy wins
        for entry in self._entries:
            if not entry.valid:
                entry.valid = True
                entry.block = block
                entry.data = data
                self._index[block] = entry
                return True
        return False

    def next_to_validate(self) -> Optional[VSBEntry]:
        """Round-robin selection of the next entry needing validation."""
        n = len(self._entries)
        for offset in range(n):
            # Advance from the slot index itself, never from
            # ``list.index(entry)``: VSBEntry compares by value, so equal
            # entries in different slots would rewind the pointer and
            # starve the earlier slot.
            idx = (self._validate_ptr + offset) % n
            entry = self._entries[idx]
            if entry.valid:
                self._validate_ptr = (idx + 1) % n
                return entry
        return None

    def retire(self, block: int) -> None:
        """Validation succeeded: drop the buffered copy (the cache copy is
        now the authoritative, genuinely-owned version)."""
        entry = self._index.pop(block, None)
        if entry is None:
            raise KeyError(f"block {block:#x} not in VSB")
        entry.valid = False
        entry.data = None

    def clear(self) -> None:
        """Abort: discard all pending speculative copies immediately."""
        for entry in self._index.values():
            entry.valid = False
            entry.data = None
        self._index.clear()
        self._validate_ptr = 0

    def blocks(self) -> List[int]:
        return [e.block for e in self._entries if e.valid]
