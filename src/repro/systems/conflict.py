"""The conflict policies: what a holder does with a conflicting request.

One class per value of :attr:`~repro.systems.spec.SystemSpec.policy`;
:func:`make_policy` builds the one a run's system names.

* :class:`BaselineRW` (``requester-wins``) — the holder always aborts.
* :class:`RequesterStalls` (``requester-stalls``) — the requester is
  NACKed, with wound-wait on ideal timestamps.
* :class:`NaiveRS` (``speculates-naive``) — forward whenever the shared
  guards allow, with no chain tracking and a bounded validation budget.
* :class:`CHATS` (``speculates-pic``) — forward as the Position-in-Chain
  register allows.
* :class:`TimestampRS` (``speculates-timestamp``) — forward only to
  younger requesters, with the naive validation budget.
* :class:`LEVCBEIdealized` (``speculates-levc``) — forward within LEVC's
  restrictions, else stall by timestamp order.

The four forwarding policies derive from :class:`RequesterSpeculates`.
Each decides in its own ``resolve`` and validation hooks, and mutates
holder-side chain state (PiC) exactly where the hardware would.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Tuple

from ..htm.stats import NAIVE_LIMIT
from .base import ConflictPolicy
from .outcome import (
    ABORT,
    ABORT_CYCLE,
    FORWARD_NO_PIC,
    NACK,
    RESOLUTION_FORWARD_SPEC,
    PolicyOutcome,
)
from .priority import PowerPriority

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.config import HTMConfig


class BaselineRW(ConflictPolicy):
    """``requester-wins``: Intel RTM-like; the holder always aborts."""

    def resolve(self, holder, msg, inflight_write):
        return ABORT


class RequesterStalls(ConflictPolicy):
    """``requester-stalls``: a conflicting requester is NACKed and
    retries after ``nack_retry_delay`` cycles while the holder runs to
    completion.

    Unconditional stalling deadlocks the moment two holders wait on each
    other, so the stall is tempered by *wound-wait* on ideal timestamps:
    an **older** requester aborts the holder instead of stalling behind it
    (the old transaction "wounds" the young one and can never itself be
    made to wait on it), which makes every wait point from younger to
    older and keeps the wait-for graph acyclic.  Non-transactional
    requests always win, as in every system (Section IV-A)."""

    def resolve(self, holder, msg, inflight_write):
        if msg.non_transactional:
            return ABORT
        if (
            msg.timestamp is None
            or holder.timestamp is None
            or msg.timestamp < holder.timestamp
        ):
            # The requester is older (or the order is unknown): holder
            # yields rather than risk a wait cycle.
            return ABORT
        return NACK


class RequesterSpeculates(ConflictPolicy):
    """Base of the four forwarding (``speculates-*``) policies: the
    holder may answer a conflicting request with a ``SpecResp`` carrying
    its speculative value.

    Each subclass's ``resolve`` runs the shared guards, which decide
    whether forwarding is structurally possible (non-transactional
    requests, the requester's VSB, the forward class), and its own rule
    for whether forwarding is safe and what the holder does if not."""


class NaiveRS(RequesterSpeculates):
    """``speculates-naive``: forward whenever structurally possible, with
    no dependency tracking.

    Consumers escape cyclic waits through a 4-bit unsuccessful-validation
    counter (Section VI-B): each fruitless validation burns one unit,
    exhaustion aborts the consumer, and a successful validation refills
    it."""

    def resolve(self, holder, msg, inflight_write):
        guard = self._common_guards(holder, msg, inflight_write)
        if guard is not None:
            return guard
        return FORWARD_NO_PIC

    def on_unsuccessful_validation(self, tx):
        tx.naive_budget -= 1
        if tx.naive_budget <= 0:
            return NAIVE_LIMIT
        return None

    def on_successful_validation(self, tx):
        tx.naive_budget = self.htm.naive_validation_budget


class TimestampRS(NaiveRS):
    """``speculates-timestamp``: CHATS with the PiC register replaced by
    ideal timestamps — forward only when the requester is strictly
    younger than the holder.

    Every forwarding then points from an older producer to a younger
    consumer, so the wait-for graph follows the (total) timestamp order
    and cycles are impossible by construction: the idealised ordering the
    PiC register approximates in a bounded register.  An older requester
    wins the conflict, charged as a cycle-avoidance abort like the PiC
    rule's refusals.  SpecResps carry no PiC, so consumers keep the naive
    validation budget."""

    def resolve(self, holder, msg, inflight_write):
        guard = self._common_guards(holder, msg, inflight_write)
        if guard is not None:
            return guard
        if (
            msg.timestamp is None
            or holder.timestamp is None
            or msg.timestamp < holder.timestamp
        ):
            return ABORT_CYCLE
        return FORWARD_NO_PIC


@functools.cache
def pic_forward_outcomes(pic_limit: int) -> Tuple[PolicyOutcome, ...]:
    """The FORWARD outcome for every message PiC in ``[0, pic_limit)``,
    indexed by that PiC.

    Built once per register width (the PiC ablation sweeps ``pic_bits``)
    and shared by every simulation using it."""
    return tuple(
        PolicyOutcome(RESOLUTION_FORWARD_SPEC, message_pic=pic)
        for pic in range(pic_limit)
    )


class CHATS(RequesterSpeculates):
    """``speculates-pic``: the paper's proposal, a PiC-guided choice
    between requester-speculates and requester-wins (Sections III-B and
    IV-C).

    :meth:`~repro.core.pic.PiCRegister.forward_pic` compares the
    requester's PiC with the holder's and re-anchors the holder's PiC
    exactly where the hardware would; when forwarding could close a
    cycle the holder aborts instead.  Consumers rely on the PiC cycle
    check at validation time alone."""

    def __init__(self, htm: "HTMConfig"):
        super().__init__(htm)
        self._forwards = pic_forward_outcomes(htm.pic_limit)

    def resolve(self, holder, msg, inflight_write):
        guard = self._common_guards(holder, msg, inflight_write)
        if guard is not None:
            return guard
        pic = holder.pic.forward_pic(msg.pic)
        if pic is None:
            return ABORT_CYCLE
        return self._forwards[pic]


class LEVCBEIdealized(RequesterSpeculates):
    """``speculates-levc``: best-effort adaptation of LEVC (Section VI-B).

    Built on a requester-stall base with *ideal* timestamps: on a conflict
    the holder forwards a speculative value when LEVC's restrictions allow
    — the producer must not already have a consumer, must not itself have
    consumed (chains of length at most 1), and the requester must be an
    endpoint too.  Otherwise the classic timestamp order decides: an older
    requester aborts the holder, a younger requester is NACKed and stalls.

    The deadlock-avoidance scheme is *unaware* of forwarding dependencies
    (the paper's key criticism): a producer can be selected as victim after
    having forwarded, silently dooming its consumer to a validation abort.
    """

    def resolve(self, holder, msg, inflight_write):
        if msg.non_transactional:
            return ABORT
        guard = self._common_guards(holder, msg, inflight_write)
        record = holder.record
        restrictions_ok = (
            guard is None
            and not record.forwarded  # single consumer per producer
            and not record.consumed  # chain length <= 1
            and not msg.req_produced  # requester must be a chain endpoint
            and not msg.req_consumed
        )
        if restrictions_ok:
            return FORWARD_NO_PIC
        if (
            msg.timestamp is not None
            and holder.timestamp is not None
            and msg.timestamp < holder.timestamp
        ):
            # Older requester wins: the holder is the victim, regardless of
            # any forwarding it has done (cascading aborts follow).
            return ABORT
        return NACK


_POLICY_CLASSES = {
    "requester-wins": BaselineRW,
    "requester-stalls": RequesterStalls,
    "speculates-naive": NaiveRS,
    "speculates-pic": CHATS,
    "speculates-timestamp": TimestampRS,
    "speculates-levc": LEVCBEIdealized,
}


def make_policy(htm: "HTMConfig") -> ConflictPolicy:
    """Build the policy ``htm.system`` names, wrapped in PowerTM's rules
    when the system carries the power token.

    The single construction point for every system, paper or
    user-registered: registering a :class:`~repro.systems.spec.SystemSpec`
    is all the simulator needs to run it."""
    spec = htm.system
    policy = _POLICY_CLASSES[spec.policy](htm)
    if spec.powered:
        return PowerPriority(htm, policy)
    return policy


__all__ = [
    "BaselineRW",
    "CHATS",
    "LEVCBEIdealized",
    "NaiveRS",
    "RequesterSpeculates",
    "RequesterStalls",
    "TimestampRS",
    "make_policy",
    "pic_forward_outcomes",
]
