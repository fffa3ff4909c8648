"""Validation controller (Section IV-B).

One per core.  While the VSB holds speculatively received blocks, a timer
fires every ``validation_interval`` cycles, walks the VSB round-robin, and
re-issues an exclusive coherence request for the selected block.  The
response is judged here:

* value mismatch → abort (``VALIDATION``) — this is also how producer
  aborts cascade to consumers, with no dedicated signalling;
* still-speculative response (``SpecResp``) with matching value → keep
  waiting (the producer has not committed yet); the PiC carried by the
  response is checked against the local PiC and ``local >= remote`` aborts
  (``CYCLE`` — stale-PiC races, Section IV-C); the naive-R-S policy also
  burns one unit of its escape budget here;
* genuine exclusive data with matching value → the block is validated:
  the VSB entry retires and the cache copy becomes the real owned version.

When the VSB drains completely the Cons bit clears (the PiC itself stays
valid until commit — the transaction may still be a producer) and a commit
waiting on the drain is released.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..htm.stats import VALIDATION
from ..net.messages import NACK, SPEC_RESP, Message
from ..obs.events import ValidationMismatch, ValidationOk, ValidationStart, VsbDrain

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Core


class ValidationController:
    """Drives periodic validation of one core's VSB."""

    def __init__(self, core: "Core"):
        self._core = core
        #: The armed timer's handle, for ``engine.cancel``.
        self._timer: Optional[object] = None
        self._inflight = False

    # ------------------------------------------------------------------
    def arm(self, tx) -> None:
        """Ensure the timer is running (called on first SpecResp)."""
        if self._timer is not None or self._inflight:
            return
        if tx is None or not tx.active or tx.vsb.empty:
            return
        interval = max(1, self._core.htm.validation_interval or 1)
        self._timer = self._core.engine.schedule(interval, self._fire)

    def cancel(self) -> None:
        """Abort/commit of the attempt: stop the timer."""
        if self._timer is not None:
            self._core.engine.cancel(self._timer)
            self._timer = None
        self._inflight = False

    # ------------------------------------------------------------------
    def _fire(self) -> None:
        self._timer = None
        tx = self._core.tx
        if tx is None or not tx.active or tx.vsb.empty:
            return
        entry = tx.vsb.next_to_validate()
        if entry is None:  # pragma: no cover - vsb.empty already checked
            return
        self._inflight = True
        self._core.stats.validations_attempted += 1
        probe = self._core.sim.probe
        if probe._subscribers:
            probe.emit(
                ValidationStart(
                    cycle=self._core.engine.now, core=self._core.core_id,
                    block=entry.block, epoch=tx.epoch,
                )
            )
        self._core.l1.issue_validation(tx, entry.block, self._on_response)

    def _on_response(self, epoch: int, msg: Message) -> None:
        """The L1's completion callback: ``epoch`` is the attempt that
        issued the request, so a response to a dead attempt is ignored."""
        self._inflight = False
        core = self._core
        tx = core.tx
        if tx is None or not tx.active or tx.epoch != epoch:
            return
        copy = tx.vsb.lookup(msg.block)
        if copy is None:
            # Entry vanished (should not happen while active); keep going.
            self._reschedule(tx)
            return
        if msg.kind is NACK:
            self._reschedule(tx)
            return
        # The responder is the abort's proximate source when it is a core
        # (a SpecResp producer); directory-sourced data has no core to
        # blame — the forensics layer then walks the forwarding edges to
        # find the producer whose abort let memory serve stale data.
        src = msg.src if msg.src >= 0 else None
        if msg.kind is SPEC_RESP:
            if msg.data != copy:
                core.stats.validation_mismatches += 1
                self._emit_mismatch(tx, msg.block)
                core.abort_tx(VALIDATION, src, msg.block)
                return
            # The system's validation scheme judges the fruitless attempt
            # (the generic PiC cycle check — or its budget-bounded
            # ablation — plus any policy-specific escape counter).
            reason = core.policy.check_unsuccessful_validation(tx, msg.pic)
            if reason is not None:
                core.abort_tx(reason, src, msg.block)
                return
            self._reschedule(tx)
            return
        # Genuine data with ownership.
        if msg.data != copy:
            core.stats.validation_mismatches += 1
            self._emit_mismatch(tx, msg.block)
            core.abort_tx(VALIDATION, src, msg.block)
            return
        tx.vsb.retire(msg.block)
        core.stats.validations_succeeded += 1
        probe = core.sim.probe
        if probe._subscribers:
            now = core.engine.now
            probe.emit(
                ValidationOk(
                    cycle=now, core=core.core_id,
                    block=msg.block, epoch=tx.epoch,
                )
            )
            probe.emit(
                VsbDrain(
                    cycle=now, core=core.core_id,
                    block=msg.block, occupancy=tx.vsb.occupancy(),
                )
            )
        core.policy.on_successful_validation(tx)
        if tx.vsb.empty:
            tx.pic.clear_cons()
            if tx.commit_pending:
                core.finish_pending_commit()
            return
        self._reschedule(tx)

    def _emit_mismatch(self, tx, block: int) -> None:
        probe = self._core.sim.probe
        if probe._subscribers:
            probe.emit(
                ValidationMismatch(
                    cycle=self._core.engine.now, core=self._core.core_id,
                    block=block, epoch=tx.epoch,
                )
            )

    def _reschedule(self, tx) -> None:
        if self._timer is None and tx.active and not tx.vsb.empty:
            interval = max(1, self._core.htm.validation_interval or 1)
            self._timer = self._core.engine.schedule(interval, self._fire)
