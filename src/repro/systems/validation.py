"""Consumer-side validation schemes.

A forwarding system's consumer periodically re-validates every
speculatively received block (:mod:`repro.core.validation` drives the
timer and the coherence exchange).  What happens on a *fruitless*
validation — the producer is still speculative, the value still matches —
is the system's validation scheme, one per value of
:attr:`~repro.systems.spec.SystemSpec.validation`:

* ``none`` — the system never consumes, so the hooks are never called
  (requester-wins and requester-stalls systems).
* ``interval`` — plain periodic validation with no extra escape: keep
  waiting for the producer to commit (LEVC).
* ``pic-check`` — periodic validation relying on the PiC cycle check
  (applied generically in
  :meth:`repro.systems.base.ConflictPolicy.check_unsuccessful_validation`)
  to break stale-PiC cycles (CHATS, PCHATS).
* ``naive-budget`` — a bounded unsuccessful-validation counter: each
  fruitless validation burns one unit and exhaustion aborts the consumer
  (``NAIVE_LIMIT``), the only way out of an untracked cyclic wait
  (naive R-S, chats-ts).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..htm.stats import NAIVE_LIMIT, AbortReason

if TYPE_CHECKING:  # pragma: no cover
    from ..htm.txstate import TxState
    from ..sim.config import HTMConfig


class ValidationScheme:
    """``none``/``interval``/``pic-check``: no per-validation escape."""

    name = "interval"

    def __init__(self, htm: "HTMConfig"):
        self.htm = htm

    def on_unsuccessful(self, tx: "TxState") -> Optional[AbortReason]:
        return None

    def on_successful(self, tx: "TxState") -> None:
        pass


class NaiveBudgetValidation(ValidationScheme):
    """``naive-budget``: a 4-bit unsuccessful-validation counter
    (Section VI-B) — the escape hatch of dependency-blind forwarding."""

    name = "naive-budget"

    def on_unsuccessful(self, tx: "TxState") -> Optional[AbortReason]:
        tx.naive_budget -= 1
        if tx.naive_budget <= 0:
            return NAIVE_LIMIT
        return None

    def on_successful(self, tx: "TxState") -> None:
        tx.naive_budget = self.htm.naive_validation_budget


def make_validation(name: str, htm: "HTMConfig") -> ValidationScheme:
    """Instantiate the validation scheme for a spec's ``validation`` layer."""
    if name == "naive-budget":
        return NaiveBudgetValidation(htm)
    return ValidationScheme(htm)
