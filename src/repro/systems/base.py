"""The conflict-policy interface and its shared guards.

One :class:`ConflictPolicy` instance exists per simulation run; it is
consulted by the L1 controller of the *holder* (the cache that detects a
conflict on an incoming probe) and by the consumer-side validation
controller.  The concrete policies live in :mod:`repro.systems.conflict`,
one class per :attr:`~repro.systems.spec.SystemSpec.policy` name, and
:func:`repro.systems.conflict.make_policy` builds the one a run's system
names.

Policies mutate holder-side chain state (PiC) as a side effect of
deciding, exactly where the hardware would.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..htm.stats import CYCLE, AbortReason
from .forwardrules import InflightWriteProbe, block_is_forwardable
from .outcome import ABORT, PolicyOutcome

if TYPE_CHECKING:  # pragma: no cover
    from ..htm.txstate import TxState
    from ..net.messages import Message
    from ..sim.config import HTMConfig


class ConflictPolicy:
    """Policy interface; one instance per simulation run."""

    def __init__(self, htm: "HTMConfig"):
        self.htm = htm

    def resolve(
        self,
        holder: "TxState",
        msg: "Message",
        inflight_write: InflightWriteProbe,
    ) -> PolicyOutcome:
        raise NotImplementedError

    # Hooks for the consumer-side validation controller -----------------
    def check_unsuccessful_validation(
        self, tx: "TxState", message_pic: Optional[int]
    ) -> Optional[AbortReason]:
        """Judge a still-speculative (``SpecResp``) validation response
        whose value matched.  Returns the abort reason that must kill the
        consumer, or None to keep waiting.

        The PiC cycle check (``local >= remote`` aborts — stale-PiC races,
        Section IV-C) applies to every forwarding system; the
        ``validation_pic_check`` ablation replaces it with a bounded
        fruitless-validation budget.  The policy's own hook then gets a
        say via :meth:`on_unsuccessful_validation`.
        """
        if self.htm.validation_pic_check:
            if tx.pic.validation_check(message_pic):
                return CYCLE
        else:
            # Ablation: with the PiC check disabled, undetected cycles
            # can only be broken by bounding fruitless validations.
            tx.naive_budget -= 1
            if tx.naive_budget <= 0:
                return CYCLE
        return self.on_unsuccessful_validation(tx)

    def on_unsuccessful_validation(self, tx: "TxState") -> Optional[AbortReason]:
        """Called when a validation attempt returns still-speculative but
        matching data.  Returns an abort reason to kill the consumer, or
        None to keep waiting."""
        return None

    def on_successful_validation(self, tx: "TxState") -> None:
        """Called when a block is fully validated."""

    def _common_guards(
        self,
        holder: "TxState",
        msg: "Message",
        inflight_write: InflightWriteProbe,
    ) -> Optional[PolicyOutcome]:
        """Checks shared by every forwarding policy.  Returns an outcome to
        short-circuit with, or None to continue to the policy's own rules."""
        if msg.non_transactional:
            # Conflicting non-transactional requests always use
            # requester-wins (Section IV-A).
            return ABORT
        if not msg.can_consume:
            # The requester has no VSB slot (or cannot consume at all).
            return ABORT
        if self.htm.forward_class is None or not block_is_forwardable(
            self.htm.forward_class, holder, msg.block, inflight_write
        ):
            return ABORT
        return None
