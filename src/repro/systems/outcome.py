"""Conflict-resolution outcome records shared by every mechanism layer.

A policy names one of three resolutions for a conflict detected at the
*holder*:

* ``ABORT_LOCAL`` — requester-wins: the holder's transaction aborts and
  the request is satisfied with non-speculative data;
* ``FORWARD_SPEC`` — requester-speculates: the holder answers with a
  ``SpecResp`` carrying its current (speculative) value and cancels the
  request at the directory, retaining coherence ownership;
* ``NACK`` — requester-stalls: the requester receives a negative response
  and retries later.

Every outcome a policy returns is a shared instance: the module-level
constants below, or the per-PiC forward table of
:func:`repro.systems.ordering.pic_forward_outcomes`.  Resolving a
conflict therefore allocates nothing.  :class:`PolicyOutcome` is frozen
(and slotted) because of that sharing: an accidental caller-side
mutation would silently cross-contaminate later resolutions, and
freezing turns that hazard into an immediate error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..htm.stats import AbortReason


class Resolution(Enum):
    ABORT_LOCAL = "abort-local"
    FORWARD_SPEC = "forward-spec"
    NACK = "nack"


# Module constants for event-path code, which names no member through
# its class (docs/PERFORMANCE.md, "Enum members on the event path").
# ``NACK`` and the ``FORWARD_*`` names below are outcomes, so these carry
# the class name.
RESOLUTION_FORWARD_SPEC = Resolution.FORWARD_SPEC
RESOLUTION_NACK = Resolution.NACK


@dataclass(frozen=True, slots=True)
class PolicyOutcome:
    resolution: Resolution
    #: PiC stamped on the SpecResp (None for naive/LEVC/power producers).
    message_pic: Optional[int] = None
    #: Abort reason charged to the holder on ABORT_LOCAL.
    abort_reason: AbortReason = AbortReason.CONFLICT
    #: SpecResp originates from a power transaction (PCHATS): the consumer
    #: keeps its PiC.
    from_power: bool = False


#: Requester-wins, charged as a plain conflict.
ABORT = PolicyOutcome(Resolution.ABORT_LOCAL)
#: Requester-wins because forwarding could close a chain cycle.
ABORT_CYCLE = PolicyOutcome(
    Resolution.ABORT_LOCAL, abort_reason=AbortReason.CYCLE
)
#: Requester-wins against the power transaction.
ABORT_POWER = PolicyOutcome(
    Resolution.ABORT_LOCAL, abort_reason=AbortReason.POWER
)
#: Requester-stalls: the requester is NACKed and retries.
NACK = PolicyOutcome(Resolution.NACK)
#: Requester-speculates without a chain position (naive, LEVC, timestamps).
FORWARD_NO_PIC = PolicyOutcome(Resolution.FORWARD_SPEC)
#: Requester-speculates from the power transaction (PCHATS): the consumer
#: keeps its PiC.
FORWARD_POWER = PolicyOutcome(Resolution.FORWARD_SPEC, from_power=True)
