"""Chain-ordering schemes: how a forwarding holder keeps chains acyclic.

Once the shared guards of a requester-speculates policy pass, the ordering
scheme owns the forward/abort decision (and any chain-state update on the
holder).  Each scheme corresponds to one value of
:attr:`~repro.systems.spec.SystemSpec.ordering`:

* ``none`` — no dependency tracking: always forward (the naive scheme;
  cyclic waits are broken by the validation layer's escape budget).
* ``pic`` — the CHATS Position-in-Chain register (Sections III-B, IV-C):
  the holder compares the requester's PiC against its own, re-anchors when
  safe, and falls back to requester-wins when forwarding could close a
  cycle.
* ``ideal-timestamp`` — chain positions come from ideal begin timestamps:
  forward only to *younger* requesters (producer strictly older than
  consumer), which keeps every chain acyclic by construction; an older
  requester wins the conflict instead.

(The fourth ordering, ``levc-flags``, is inseparable from its
requester-stall fallback and lives in
:class:`repro.systems.conflict.LEVCBEIdealized`.)
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Tuple

from .outcome import ABORT_CYCLE, FORWARD_NO_PIC, PolicyOutcome, Resolution

if TYPE_CHECKING:  # pragma: no cover
    from ..htm.txstate import TxState
    from ..net.messages import Message
    from ..sim.config import HTMConfig


class OrderingScheme:
    """``none``: forward unconditionally, carrying no chain position."""

    name = "none"

    def __init__(self, htm: "HTMConfig"):
        self.htm = htm

    def forward_decision(self, holder: "TxState", msg: "Message") -> PolicyOutcome:
        return FORWARD_NO_PIC


@functools.cache
def pic_forward_outcomes(pic_limit: int) -> Tuple[PolicyOutcome, ...]:
    """The FORWARD outcome for every message PiC in ``[0, pic_limit)``,
    indexed by that PiC.

    Built once per register width (the PiC ablation sweeps ``pic_bits``)
    and shared by every simulation using it."""
    return tuple(
        PolicyOutcome(Resolution.FORWARD_SPEC, message_pic=pic)
        for pic in range(pic_limit)
    )


class PicOrdering(OrderingScheme):
    """``pic``: PiC-guided choice between requester-speculates and
    requester-wins.  :meth:`~repro.core.pic.PiCRegister.forward_pic`
    mutates the holder's PiC exactly where the hardware would."""

    name = "pic"

    def __init__(self, htm: "HTMConfig"):
        super().__init__(htm)
        self._forwards = pic_forward_outcomes(htm.pic_limit)

    def forward_decision(self, holder: "TxState", msg: "Message") -> PolicyOutcome:
        pic = holder.pic.forward_pic(msg.pic)
        if pic is None:
            return ABORT_CYCLE
        return self._forwards[pic]


class TimestampOrdering(OrderingScheme):
    """``ideal-timestamp``: forward only when the requester is strictly
    younger than the holder.

    Every forwarding then points from an older producer to a younger
    consumer, so the wait-for graph follows the (total) timestamp order
    and cycles are impossible by construction — the idealised ordering
    the PiC register approximates in a bounded register.  An older
    requester wins the conflict (charged as a cycle-avoidance abort,
    mirroring the PiC scheme's refusals)."""

    name = "ideal-timestamp"

    def forward_decision(self, holder: "TxState", msg: "Message") -> PolicyOutcome:
        if (
            msg.timestamp is None
            or holder.timestamp is None
            or msg.timestamp < holder.timestamp
        ):
            return ABORT_CYCLE
        return FORWARD_NO_PIC
