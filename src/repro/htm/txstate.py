"""Per-core hardware transaction state.

One :class:`TxState` object describes a single *attempt* of a transaction:
read signature, write set, redo image (speculative store), VSB, PiC, the
power/priority bit, and the Fig. 6 attempt record.  A retry creates a fresh
``TxState`` with a new epoch so that in-flight responses addressed to the
dead attempt can be recognised and dropped.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Set

from ..core.pic import PiCRegister
from ..core.vsb import ValidationStateBuffer
from ..mem.memory import MainMemory, SpeculativeStore
from ..sim.config import HTMConfig
from .signature import (
    BloomSignature,
    BoundedPerfectSignature,
    FootprintOverflow,
    PerfectSignature,
)
from .stats import AbortReason, AttemptRecord


class TxStatus(Enum):
    ACTIVE = "active"
    ABORTING = "aborting"
    COMMITTED = "committed"
    ABORTED = "aborted"


# Module constants for event-path code, which names no member through
# its class (docs/PERFORMANCE.md, "Enum members on the event path").
# ``repro.htm.stats`` binds ``COMMITTED`` and ``ABORTED`` to
# ``AttemptOutcome`` members; a module needing both imports one renamed.
ACTIVE = TxStatus.ACTIVE
ABORTING = TxStatus.ABORTING
COMMITTED = TxStatus.COMMITTED
ABORTED = TxStatus.ABORTED


class TxState:
    """State of one hardware transaction attempt on one core."""

    __slots__ = (
        "core_id",
        "epoch",
        "status",
        "active",
        "power",
        "timestamp",
        "read_sig",
        "write_set",
        "store",
        "pic",
        "vsb",
        "naive_budget",
        "write_limit",
        "abort_reason",
        "record",
        "commit_pending",
    )

    def __init__(
        self,
        core_id: int,
        epoch: int,
        memory: MainMemory,
        htm: HTMConfig,
        power: bool = False,
        timestamp: Optional[int] = None,
        machinery: Optional[tuple] = None,
    ):
        self.core_id = core_id
        self.epoch = epoch
        self.status = ACTIVE
        #: Hot-path mirror of ``status is TxStatus.ACTIVE`` — checked on
        #: every coherence response and probe, so it is a plain attribute
        #: maintained at the (rare) status transitions.
        self.active = True
        self.power = power
        #: Ideal begin timestamp (kept across retries by the core driver);
        #: ``None`` unless the spec's conflict policy ranks transactions by
        #: age (``spec.uses_timestamps``).
        self.timestamp = timestamp

        if machinery is not None:
            # Per-core reuse across attempts (see :meth:`machinery`): the
            # previous attempt ended via ``commit()``/``finish_abort()``,
            # both of which restore the signature, write set, store and
            # PiC to their pristine state.  The VSB retires entries
            # without rewinding its round-robin pointer, so it is the one
            # piece that needs an explicit clear here.
            (
                self.read_sig,
                self.write_set,
                self.store,
                self.pic,
                self.vsb,
            ) = machinery
            self.vsb.clear()
        else:
            # Perfect signature per the paper's evaluation; a Bloom filter
            # or a bounded-entry exact signature when the configuration
            # models finite read-set tracking (the capacity family).
            if htm.read_set_limit is not None:
                self.read_sig = BoundedPerfectSignature(htm.read_set_limit)
            elif htm.signature_bits is not None:
                self.read_sig = BloomSignature(bits=htm.signature_bits)
            else:
                self.read_sig = PerfectSignature()
            self.write_set = set()
            self.store = SpeculativeStore(memory)
            self.pic = PiCRegister(limit=htm.pic_limit, init=htm.pic_init)
            # Spec hook: only specs whose conflict policy forwards get a
            # real VSB; others carry a 1-slot stub (never filled).
            self.vsb = (
                ValidationStateBuffer(htm.vsb_size)
                if htm.system.forwards and htm.vsb_size
                else ValidationStateBuffer(1)
            )
        #: Naive R-S escape hatch: unsuccessful-validation budget.
        self.naive_budget = htm.naive_validation_budget
        #: Capacity family: bounded speculative write set (None = unbounded).
        self.write_limit = htm.write_set_limit

        self.abort_reason: Optional[AbortReason] = None
        #: Fig. 6 attempt record; its ``forwarded`` and ``consumed`` flags
        #: are also what LEVC's restrictions read.
        self.record = AttemptRecord()

        # Whether the attempt is waiting in the commit fence for the VSB
        # to drain (Section III-A: commit requires an empty VSB).
        self.commit_pending = False

    # ------------------------------------------------------------------
    def machinery(self) -> tuple:
        """The reusable sub-objects, to be passed back into the next
        attempt's constructor once this attempt has finished.  Safe
        because every asynchronous path into a transaction re-fetches the
        *current* attempt and epoch-checks before mutating — a stale
        reference to a finished ``TxState`` is never written through."""
        return (self.read_sig, self.write_set, self.store, self.pic, self.vsb)

    def reads(self, block: int) -> bool:
        return self.read_sig.test(block)

    def writes(self, block: int) -> bool:
        return block in self.write_set

    def conflicts_with_read(self, block: int) -> bool:
        """A remote *exclusive* request conflicts with reads and writes."""
        return self.reads(block) or self.writes(block)

    def conflicts_with_write(self, block: int) -> bool:
        """A remote *read* request conflicts only with our writes."""
        return self.writes(block)

    def track_read(self, block: int) -> None:
        self.read_sig.add(block)

    def track_write(self, block: int) -> None:
        ws = self.write_set
        if (
            self.write_limit is not None
            and block not in ws
            and len(ws) >= self.write_limit
        ):
            raise FootprintOverflow(block)
        ws.add(block)
        # Writes imply read permission in the conflict model.
        self.read_sig.add(block)

    def footprint(self) -> Set[int]:
        """Exact footprint (perfect signatures only); Bloom-signature
        transactions fall back to the write set plus nothing — callers
        needing membership should use :meth:`reads`/:meth:`writes`."""
        if isinstance(self.read_sig, PerfectSignature):
            return self.read_sig.blocks() | self.write_set
        return set(self.write_set)

    # ------------------------------------------------------------------
    def mark_conflicted(self) -> None:
        self.record.conflicted = True

    def mark_forwarded(self) -> None:
        self.record.conflicted = True
        self.record.forwarded = True

    def mark_consumed(self) -> None:
        self.record.conflicted = True
        self.record.consumed = True

    # ------------------------------------------------------------------
    def begin_abort(self, reason: AbortReason) -> None:
        """Transition to ABORTING (cleanup happens at the core driver)."""
        if self.status in (COMMITTED, ABORTED):
            raise RuntimeError(f"abort of finished transaction ({self.status})")
        if self.status is ABORTING:
            return  # already dying; first reason wins
        self.status = ABORTING
        self.active = False
        self.abort_reason = reason

    def finish_abort(self) -> None:
        self.store.discard()
        self.vsb.clear()
        self.pic.reset()
        self.read_sig.clear()
        self.write_set.clear()
        self.status = ABORTED
        self.active = False

    def can_commit(self) -> bool:
        """Commit gate: every speculatively received block validated."""
        return self.status is ACTIVE and self.vsb.empty

    def commit(self) -> None:
        if not self.can_commit():
            raise RuntimeError("commit attempted with pending speculation")
        self.store.commit()
        self.read_sig.clear()
        self.write_set.clear()
        self.pic.reset()
        self.status = COMMITTED
        self.active = False
