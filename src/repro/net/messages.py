"""Coherence message taxonomy.

The simplified MESI protocol exchanges the message kinds below.  For
Fig. 7 the only property that matters is whether a message carries a data
payload or is control-only (Table I); the crossbar charges each class the
flit count its ``SystemConfig`` gives.

Hot-path design: a :class:`Message` is created for every hop of every
coherence exchange, so it is a ``__slots__`` class (no per-instance
``__dict__``) built by :func:`make_message`, a plain function doing one
allocation and the slot stores (the class has no ``__init__``).  A
message is a plain record that lives as long as something references
it: a handler keeps one past its delivery (the directory queues
requests and holds invalidation-round requests) by holding the
reference, and nothing is recycled or invalidated after delivery.  One
record may serve several deliveries (an invalidation round's INV goes to
every sharer), so a handler never writes a delivered message.  The
per-kind hot attributes (``carries_data``, ``idx``) are precomputed once
on the enum members, so the send path pays plain C-speed attribute loads
instead of property calls and enum hashing, and every kind is also a
module constant (``DATA``), so handlers test kinds without a class
attribute load.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple


class MessageKind(Enum):
    # Requests (core → directory).
    GETS = "GETS"  # read permission
    GETX = "GETX"  # exclusive / write permission
    UPGRADE = "UPGRADE"  # S → M without data
    # Directory → owner/sharers.
    FWD_GETS = "FwdGETS"
    FWD_GETX = "FwdGETX"
    INV = "Inv"
    # Responses.
    DATA = "Data"  # data, shared permission
    DATA_E = "DataE"  # data, exclusive permission
    SPEC_RESP = "SpecResp"  # speculative data hint, no permission (CHATS)
    NACK = "Nack"  # negative response, no data (PowerTM holder)
    ACK = "Ack"  # invalidation acknowledgement
    # Core → directory notifications.
    CANCEL = "Cancel"  # request cancelled after SpecResp (unblock)
    UNBLOCK = "Unblock"  # request completed
    WRITEBACK = "Writeback"  # eviction of an owned block


# Precompute the hot per-kind attributes once.  ``carries_data`` used to
# be a property doing tuple membership per call; it is now a plain bool
# on each member (read-only by convention).  ``idx`` gives each kind a
# dense index for table-driven dispatch and flit accounting.
_DATA_KINDS = frozenset(
    (
        MessageKind.DATA,
        MessageKind.DATA_E,
        MessageKind.SPEC_RESP,
        MessageKind.WRITEBACK,
    )
)
for _i, _kind in enumerate(MessageKind):
    _kind.idx = _i
    _kind.carries_data = _kind in _DATA_KINDS

# Module constants for event-path code, which names no member through
# its class (docs/PERFORMANCE.md, "Enum members on the event path").
GETS = MessageKind.GETS
GETX = MessageKind.GETX
UPGRADE = MessageKind.UPGRADE
FWD_GETS = MessageKind.FWD_GETS
FWD_GETX = MessageKind.FWD_GETX
INV = MessageKind.INV
DATA = MessageKind.DATA
DATA_E = MessageKind.DATA_E
SPEC_RESP = MessageKind.SPEC_RESP
NACK = MessageKind.NACK
ACK = MessageKind.ACK
CANCEL = MessageKind.CANCEL
UNBLOCK = MessageKind.UNBLOCK
WRITEBACK = MessageKind.WRITEBACK


#: Node id of the directory in message src/dst fields.
DIRECTORY = -1


class Message:
    """One message on the interconnect.

    ``pic`` carries the sender's Position-in-Chain at *send* time (stale by
    delivery time if the sender changed it meanwhile — deliberately so, per
    Section IV-C).  ``power`` marks messages from an elevated-priority
    transaction.  ``epoch`` tags the requester's transaction attempt so that
    responses to a dead attempt can be recognised and dropped.  ``req_id``
    threads a response back to the request that caused it.  ``dst`` is
    None on a record multicast to several nodes; only the crossbar reads
    it.
    """

    __slots__ = (
        "kind",
        "src",
        "dst",
        "block",
        "data",
        "requester",
        "exclusive",
        "pic",
        "power",
        "timestamp",
        "epoch",
        "req_id",
        "can_consume",
        "is_validation",
        "non_transactional",
        "req_produced",
        "req_consumed",
        "action",
    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{self.kind.value} {self.src}->{self.dst} blk={self.block:#x}"
            f"{' V' if self.is_validation else ''}"
            f"{' P' if self.power else ''} e{self.epoch}>"
        )


_new_message = object.__new__


def make_message(
    kind: MessageKind,
    src: int = 0,
    dst: Optional[int] = 0,
    block: int = 0,
    # The request a message belongs to: set on requests, probes and
    # every answer to them.
    epoch: int = 0,
    req_id: int = 0,
    # The payload of Data, DataE, SpecResp and Writeback.
    data: Optional[Tuple[int, ...]] = None,
    # A probe's requester, and what a probed cache tells the directory
    # about it.
    requester: Optional[int] = None,
    exclusive: bool = False,
    # UNBLOCK sub-action from a probed cache back to the directory:
    # 'xfer' (ownership moved to requester), 'downgrade' (owner became
    # sharer), 'aborted' (holder aborted; supply memory data),
    # 'not_present' (stale owner; supply memory data), 'recv'
    # (grantee acknowledges a directory-sourced response); an ACK's
    # 'invalidated' or 'refused'.
    action: Optional[str] = None,
    # The requesting transaction's chain state, carried by requests and
    # probes.
    pic: Optional[int] = None,
    power: bool = False,
    timestamp: Optional[int] = None,
    can_consume: bool = True,
    is_validation: bool = False,
    non_transactional: bool = False,
    # LEVC-BE-Idealized: requester chain-endpoint flags (idealized —
    # carried on every request at no cost, like its ideal timestamps).
    req_produced: bool = False,
    req_consumed: bool = False,
) -> Message:
    """Build a :class:`Message` — its only constructor.

    A plain function: calling a class whose ``__init__`` is Python code
    with keywords packs them into a dict and binds them again, which
    costs about twice this allocation plus 18 slot stores.  The
    parameters are ordered so that every message the L1 and the
    directory build is a positional prefix, and they pass it
    positionally, since binding keywords costs more than the few
    defaults a prefix spells out: a NACK stops at ``req_id``, a grant
    at ``data``, an UNBLOCK, ACK or CANCEL at ``action`` or
    ``requester``, and a request or a probe passes every field.
    """
    msg = _new_message(Message)
    msg.kind = kind
    msg.src = src
    msg.dst = dst
    msg.block = block
    msg.epoch = epoch
    msg.req_id = req_id
    msg.data = data
    msg.requester = requester
    msg.exclusive = exclusive
    msg.action = action
    msg.pic = pic
    msg.power = power
    msg.timestamp = timestamp
    msg.can_consume = can_consume
    msg.is_validation = is_validation
    msg.non_transactional = non_transactional
    msg.req_produced = req_produced
    msg.req_consumed = req_consumed
    return msg
