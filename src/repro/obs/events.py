"""Typed probe events emitted on the instrumentation bus.

Every event is a small frozen dataclass stamped with the simulated cycle
at which it happened.  The taxonomy mirrors the moments a CHATS debugging
session cares about: coherence traffic, speculative forwards, validation
outcomes, PiC movement, VSB pressure, commits/aborts, and the two escape
hatches (fallback lock, power token).

Events are *data*, not behaviour: each carries primitive fields only, so
subscribers can serialize them (JSONL, Chrome ``trace_event``) without
touching live simulator state.  ``kind`` is a stable string used by
filtering subscribers and the trace writers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional


@dataclass(frozen=True, slots=True)
class ProbeEvent:
    """Base class: one observed moment of a simulation."""

    kind: ClassVar[str] = "event"

    cycle: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form; ``None`` fields are omitted."""
        out: Dict[str, object] = {"kind": self.kind}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = value
        return out


@dataclass(frozen=True, slots=True)
class MsgSent(ProbeEvent):
    """A message was injected into the interconnect."""

    kind: ClassVar[str] = "message"

    src: int = 0  # -1 (DIRECTORY) for directory-sourced messages
    dst: int = 0
    msg_kind: str = ""
    block: int = 0
    pic: Optional[int] = None
    power: bool = False
    is_validation: bool = False
    non_transactional: bool = False
    action: Optional[str] = None


@dataclass(frozen=True, slots=True)
class SpecForward(ProbeEvent):
    """A holder answered a conflicting request with speculative data."""

    kind: ClassVar[str] = "forward"

    producer: int = 0
    consumer: int = 0
    block: int = 0
    pic: Optional[int] = None  # PiC stamped on the SpecResp (None = power)


@dataclass(frozen=True, slots=True)
class TxBegin(ProbeEvent):
    """A hardware transaction attempt started running user code."""

    kind: ClassVar[str] = "tx-begin"

    core: int = 0
    epoch: int = 0
    power: bool = False


@dataclass(frozen=True, slots=True)
class ValidationStart(ProbeEvent):
    """The validation controller re-requested a VSB block exclusively."""

    kind: ClassVar[str] = "validation-start"

    core: int = 0
    block: int = 0
    epoch: int = 0


@dataclass(frozen=True, slots=True)
class ValidationOk(ProbeEvent):
    """A speculated block was validated (genuine data, matching value)."""

    kind: ClassVar[str] = "validation-ok"

    core: int = 0
    block: int = 0
    epoch: int = 0


@dataclass(frozen=True, slots=True)
class ValidationMismatch(ProbeEvent):
    """A validation response carried a different value: consumer aborts."""

    kind: ClassVar[str] = "validation-mismatch"

    core: int = 0
    block: int = 0
    epoch: int = 0


@dataclass(frozen=True, slots=True)
class PicUpdate(ProbeEvent):
    """A core's Position-in-Chain register changed value."""

    kind: ClassVar[str] = "pic"

    core: int = 0
    value: Optional[int] = None
    source: str = ""  # "forward" (holder re-anchor) | "adopt" (SpecResp)


@dataclass(frozen=True, slots=True)
class VsbInsert(ProbeEvent):
    """A speculatively received block entered the VSB."""

    kind: ClassVar[str] = "vsb-insert"

    core: int = 0
    block: int = 0
    occupancy: int = 0  # occupancy *after* the insert


@dataclass(frozen=True, slots=True)
class VsbDrain(ProbeEvent):
    """A VSB entry retired; ``occupancy`` 0 means the buffer drained."""

    kind: ClassVar[str] = "vsb-drain"

    core: int = 0
    block: int = 0
    occupancy: int = 0  # occupancy *after* the retire


@dataclass(frozen=True, slots=True)
class Commit(ProbeEvent):
    """A hardware transaction committed."""

    kind: ClassVar[str] = "commit"

    core: int = 0
    epoch: int = 0
    power: bool = False
    label: str = ""


@dataclass(frozen=True, slots=True)
class Abort(ProbeEvent):
    """A hardware transaction attempt rolled back.

    ``src``/``block`` carry the proximate cause when the abort site knows
    it: the requester whose probe won a conflict, the producer whose
    speculative value failed validation, or the block whose installation
    overflowed the cache.  Both stay ``None`` for aborts with no external
    trigger (explicit aborts, directory races) — the forensics layer tags
    those ``unattributed`` unless the event stream lets it infer more.
    """

    kind: ClassVar[str] = "abort"

    core: int = 0
    epoch: int = 0
    reason: str = ""
    label: str = ""
    src: Optional[int] = None  # core whose action triggered the abort
    block: Optional[int] = None  # block the triggering action touched
    power: bool = False


@dataclass(frozen=True, slots=True)
class FallbackAcquire(ProbeEvent):
    """A core acquired the global fallback lock (serialized execution)."""

    kind: ClassVar[str] = "fallback"

    core: int = 0


@dataclass(frozen=True, slots=True)
class FallbackCommit(ProbeEvent):
    """A fallback-path execution finished (the serialized section ends).

    Paired with the preceding :class:`FallbackAcquire` of the same core;
    the span between the two is the run's fallback-serialized time."""

    kind: ClassVar[str] = "fallback-commit"

    core: int = 0
    label: str = ""


@dataclass(frozen=True, slots=True)
class PowerElevate(ProbeEvent):
    """A core was granted the power token (elevated priority)."""

    kind: ClassVar[str] = "power"

    core: int = 0


@dataclass(frozen=True, slots=True)
class DirForward(ProbeEvent):
    """The directory forwarded a request to the current owner."""

    kind: ClassVar[str] = "dir-forward"

    block: int = 0
    owner: int = 0
    requester: int = 0
    exclusive: bool = False


@dataclass(frozen=True, slots=True)
class DirInvRound(ProbeEvent):
    """The directory started an invalidation round for a GETX."""

    kind: ClassVar[str] = "dir-inv"

    block: int = 0
    requester: int = 0
    sharers: int = 0


#: Every concrete event type, keyed by its stable kind string.
EVENT_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        MsgSent,
        SpecForward,
        TxBegin,
        ValidationStart,
        ValidationOk,
        ValidationMismatch,
        PicUpdate,
        VsbInsert,
        VsbDrain,
        Commit,
        Abort,
        FallbackAcquire,
        FallbackCommit,
        PowerElevate,
        DirForward,
        DirInvRound,
    )
}
