"""Set-associative L1 data cache model.

Only the L1 needs structural modelling: it is where speculative versioning
happens (the SM bit per line) and where capacity aborts originate.  L2/L3
are modelled as latency (values live in :mod:`repro.mem.memory`).

Key behaviours from the paper's baseline (Section VI-B):

* lazy versioning — speculatively written blocks are marked SM; the
  non-speculative version conceptually lives in L2 (our committed memory);
* abort is a conditional gang-invalidation of SM lines;
* replacement favours write-set blocks, so evicting an SM line (a capacity
  abort) only happens when a set fills with SM lines;
* speculatively *received* blocks (CHATS) are inserted as SM write-set
  lines so the existing machinery discards them on abort (Section III-A).

Hot-path notes: lines and the cache itself are ``__slots__`` records, and
SM lines are additionally indexed in a block → line dict so the abort
(gang invalidation) and commit (mark clearing) sweeps cost O(write set)
instead of O(cache).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.config import SystemConfig


class CacheLine:
    __slots__ = ("block", "state", "speculative", "spec_received", "last_use")

    def __init__(
        self,
        block: int,
        state: str = "I",  # I, S, E, M
        speculative: bool = False,  # the SM bit
        spec_received: bool = False,  # received via SpecResp, pending validation
        last_use: int = 0,
    ):
        self.block = block
        self.state = state
        self.speculative = speculative
        self.spec_received = spec_received
        self.last_use = last_use

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheLine(block={self.block:#x}, state={self.state!r}, "
            f"speculative={self.speculative}, spec_received={self.spec_received})"
        )


class CapacityAbort(Exception):
    """Raised when an SM line must be evicted: the transaction cannot keep
    its write set in L1 and must abort (capacity abort)."""

    def __init__(self, block: int):
        super().__init__(f"eviction of speculative block {block:#x}")
        self.block = block


class L1Cache:
    """Per-core L1D.  Tracks presence/state; values live elsewhere."""

    __slots__ = ("config", "_sets", "_nsets", "_ways", "_tick", "_spec")

    def __init__(self, config: SystemConfig):
        self.config = config
        self._nsets = config.l1_sets
        self._ways = config.l1_ways
        self._sets: List[Dict[int, CacheLine]] = [
            dict() for _ in range(self._nsets)
        ]
        self._tick = 0
        # SM-line index: block -> line, maintained by every path that sets
        # or clears the speculative bit or removes a line.
        self._spec: Dict[int, CacheLine] = {}

    def lookup(self, block: int) -> Optional[CacheLine]:
        line = self._sets[block % self._nsets].get(block)
        if line is not None:
            self._tick += 1
            line.last_use = self._tick
        return line

    def peek(self, block: int) -> Optional[CacheLine]:
        """Lookup without touching recency."""
        return self._sets[block % self._nsets].get(block)

    def install(
        self,
        block: int,
        state: str,
        *,
        speculative: bool = False,
        spec_received: bool = False,
    ) -> Optional[CacheLine]:
        """Insert/refresh a line.

        Returns the evicted victim line (so the controller can write back
        owned victims), or ``None``.  Raises :class:`CapacityAbort` when
        the only victims available are speculative (SM) lines.
        """
        cset = self._sets[block % self._nsets]
        line = cset.get(block)
        self._tick += 1
        if line is not None:
            line.state = state
            if speculative and not line.speculative:
                line.speculative = True
                self._spec[block] = line
            line.spec_received = line.spec_received or spec_received
            line.last_use = self._tick
            return None
        victim: Optional[CacheLine] = None
        if len(cset) >= self._ways:
            victim_block = self._choose_victim(cset)
            victim = cset[victim_block]
            if victim.speculative:
                # Write-set block would leave the cache: capacity abort.
                raise CapacityAbort(victim_block)
            del cset[victim_block]
        cset[block] = line = CacheLine(
            block, state, speculative, spec_received, self._tick
        )
        if speculative:
            self._spec[block] = line
        return victim

    def _choose_victim(self, cset: Dict[int, CacheLine]) -> int:
        """LRU among non-speculative lines first (write-set-aware policy);
        among speculative lines only when no other choice exists.  With
        the ablation switch off, plain LRU applies — evicting whatever is
        oldest, including SM lines (which then costs a capacity abort)."""
        if self.config.write_set_aware_replacement:
            non_spec = [ln for ln in cset.values() if not ln.speculative]
            pool = non_spec if non_spec else list(cset.values())
        else:
            pool = list(cset.values())
        return min(pool, key=lambda ln: ln.last_use).block

    def mark_speculative(self, block: int) -> None:
        line = self._sets[block % self._nsets].get(block)
        if line is None:
            raise KeyError(f"block {block:#x} not cached")
        line.speculative = True
        self._spec[block] = line

    def invalidate(self, block: int) -> None:
        self._sets[block % self._nsets].pop(block, None)
        self._spec.pop(block, None)

    def gang_invalidate_speculative(self) -> List[int]:
        """Abort path: drop every SM line; returns the blocks dropped."""
        spec = self._spec
        if not spec:
            return []
        sets = self._sets
        nsets = self._nsets
        dropped = list(spec)
        for block in dropped:
            del sets[block % nsets][block]
        spec.clear()
        return dropped

    def clear_speculative_marks(self) -> List[int]:
        """Commit path: SM lines become ordinary M lines; returns them."""
        spec = self._spec
        if not spec:
            return []
        for line in spec.values():
            line.speculative = False
            line.spec_received = False
            line.state = "M"
        cleared = list(spec)
        spec.clear()
        return cleared

    def speculative_blocks(self) -> List[int]:
        return list(self._spec)

    def resident_blocks(self) -> List[int]:
        return [line.block for cset in self._sets for line in cset.values()]

    def occupancy(self) -> int:
        return sum(len(cset) for cset in self._sets)
