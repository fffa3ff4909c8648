"""Transaction lifecycle ledger: every attempt, reconstructed.

:class:`TxLedger` is a probe subscriber that turns the flat event stream
into *per-attempt* records: for each hardware transaction attempt it
captures the begin/end cycles, how it finished (commit or abort, with the
proximate cause the abort site stamped on the event), every speculative
forward it produced or consumed, and its validation activity.  Fallback
(serialized) executions are captured as :class:`FallbackSpan` brackets.

The ledger is the substrate for the forensics layer:

* :mod:`repro.obs.attribution` links aborts to their upstream cause and
  builds abort-cascade trees out of the forwarding edges recorded here;
* :class:`WastedWork` folds the attempt spans into per-core cycle
  buckets (committed / aborted-speculative / fallback / stalled) — the
  "where did the time go" view behind ``repro inspect``.

Like every subscriber, attaching a ledger must not perturb the run: it
only *reads* events (``TestLedgerObserverEffect`` pins this).

Example::

    ledger = TxLedger(sim)
    with ledger:
        sim.run()
    for a in ledger.attempts_of(0):
        print(a.epoch, a.outcome, a.reason)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .events import (
    Abort,
    Commit,
    FallbackAcquire,
    FallbackCommit,
    ProbeEvent,
    SpecForward,
    TxBegin,
    ValidationMismatch,
    ValidationOk,
    ValidationStart,
    VsbInsert,
)


@dataclass(frozen=True, slots=True)
class ForwardEdge:
    """One producer→consumer speculative forward, with attempt identity.

    :class:`~repro.obs.events.SpecForward` only names cores; the ledger
    stamps the *epochs* of the attempts open on both sides when the
    forward happened, so attribution can follow the edge to a specific
    producer attempt even after both cores have moved on.
    """

    cycle: int
    producer: int
    producer_epoch: int
    consumer: int
    consumer_epoch: int
    block: int
    pic: Optional[int]


@dataclass(frozen=True, slots=True)
class TxAttempt:
    """One finished hardware transaction attempt (frozen post-mortem)."""

    core: int
    epoch: int
    label: str
    power: bool
    begin: int
    end: int
    outcome: str  # "committed" | "aborted"
    reason: Optional[str] = None  # AbortReason.value when aborted
    src: Optional[int] = None  # proximate-cause core from the Abort event
    block: Optional[int] = None  # proximate-cause block from the Abort event
    forwards_sent: int = 0
    forwards_received: int = 0
    vsb_peak: int = 0
    validations_started: int = 0
    validations_ok: int = 0
    validation_mismatches: int = 0
    blocks_consumed: Tuple[int, ...] = ()

    @property
    def key(self) -> Tuple[int, int]:
        return (self.core, self.epoch)

    @property
    def span(self) -> int:
        return self.end - self.begin

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "core": self.core,
            "epoch": self.epoch,
            "label": self.label,
            "power": self.power,
            "begin": self.begin,
            "end": self.end,
            "outcome": self.outcome,
            "forwards_sent": self.forwards_sent,
            "forwards_received": self.forwards_received,
            "vsb_peak": self.vsb_peak,
            "validations_started": self.validations_started,
            "validations_ok": self.validations_ok,
            "validation_mismatches": self.validation_mismatches,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        if self.src is not None:
            out["src"] = self.src
        if self.block is not None:
            out["block"] = self.block
        if self.blocks_consumed:
            out["blocks_consumed"] = list(self.blocks_consumed)
        return out


@dataclass(frozen=True, slots=True)
class FallbackSpan:
    """One serialized (fallback-lock) execution of a core."""

    core: int
    begin: int
    end: int
    label: str = ""

    @property
    def span(self) -> int:
        return self.end - self.begin


@dataclass
class _OpenAttempt:
    """Mutable builder for an attempt still running."""

    core: int
    epoch: int
    power: bool
    begin: int
    forwards_sent: int = 0
    forwards_received: int = 0
    vsb_peak: int = 0
    validations_started: int = 0
    validations_ok: int = 0
    validation_mismatches: int = 0
    blocks_consumed: List[int] = field(default_factory=list)

    def close(self, *, cycle: int, outcome: str, label: str,
              reason: Optional[str] = None, src: Optional[int] = None,
              block: Optional[int] = None) -> TxAttempt:
        return TxAttempt(
            core=self.core,
            epoch=self.epoch,
            label=label,
            power=self.power,
            begin=self.begin,
            end=cycle,
            outcome=outcome,
            reason=reason,
            src=src,
            block=block,
            forwards_sent=self.forwards_sent,
            forwards_received=self.forwards_received,
            vsb_peak=self.vsb_peak,
            validations_started=self.validations_started,
            validations_ok=self.validations_ok,
            validation_mismatches=self.validation_mismatches,
            blocks_consumed=tuple(self.blocks_consumed),
        )


class TxLedger:
    """Probe subscriber reconstructing every transaction attempt.

    The ledger keys attempts by ``(core, epoch)`` — the simulator's
    attempt identity — and keeps the event stream's ordering guarantees:
    a core has at most one open attempt, forwards land while both sides'
    attempts are open, and validation events carry the epoch they belong
    to (stale-epoch events are dropped, mirroring the controller).
    """

    def __init__(self, sim=None):
        self.sim = sim
        self.attempts: List[TxAttempt] = []
        self.edges: List[ForwardEdge] = []
        self.fallbacks: List[FallbackSpan] = []
        self._open: Dict[int, _OpenAttempt] = {}  # core -> running attempt
        self._fallback_open: Dict[int, int] = {}  # core -> acquire cycle
        self._index: Dict[Tuple[int, int], TxAttempt] = {}

    # ------------------------------------------------------------------
    def __call__(self, ev: ProbeEvent) -> None:
        if isinstance(ev, TxBegin):
            self._open[ev.core] = _OpenAttempt(
                core=ev.core, epoch=ev.epoch, power=ev.power, begin=ev.cycle
            )
        elif isinstance(ev, SpecForward):
            producer = self._open.get(ev.producer)
            consumer = self._open.get(ev.consumer)
            if producer is not None:
                producer.forwards_sent += 1
            if consumer is not None:
                consumer.forwards_received += 1
                consumer.blocks_consumed.append(ev.block)
            self.edges.append(
                ForwardEdge(
                    cycle=ev.cycle,
                    producer=ev.producer,
                    producer_epoch=producer.epoch if producer else -1,
                    consumer=ev.consumer,
                    consumer_epoch=consumer.epoch if consumer else -1,
                    block=ev.block,
                    pic=ev.pic,
                )
            )
        elif isinstance(ev, VsbInsert):
            open_ = self._open.get(ev.core)
            if open_ is not None and ev.occupancy > open_.vsb_peak:
                open_.vsb_peak = ev.occupancy
        elif isinstance(ev, ValidationStart):
            open_ = self._open.get(ev.core)
            if open_ is not None and open_.epoch == ev.epoch:
                open_.validations_started += 1
        elif isinstance(ev, ValidationOk):
            open_ = self._open.get(ev.core)
            if open_ is not None and open_.epoch == ev.epoch:
                open_.validations_ok += 1
        elif isinstance(ev, ValidationMismatch):
            open_ = self._open.get(ev.core)
            if open_ is not None and open_.epoch == ev.epoch:
                open_.validation_mismatches += 1
        elif isinstance(ev, Commit):
            self._close(ev.core, ev.epoch, cycle=ev.cycle,
                        outcome="committed", label=ev.label)
        elif isinstance(ev, Abort):
            open_ = self._open.get(ev.core)
            if open_ is not None and open_.epoch == ev.epoch:
                del self._open[ev.core]
            else:
                # The attempt died before its TxBegin (while its lock
                # subscription read was in flight).  The abort still
                # counts in the stats, so it becomes a zero-length attempt.
                open_ = _OpenAttempt(core=ev.core, epoch=ev.epoch,
                                     power=ev.power, begin=ev.cycle)
            self._record(open_.close(cycle=ev.cycle, outcome="aborted",
                                     label=ev.label, reason=ev.reason,
                                     src=ev.src, block=ev.block))
        elif isinstance(ev, FallbackAcquire):
            self._fallback_open[ev.core] = ev.cycle
        elif isinstance(ev, FallbackCommit):
            begin = self._fallback_open.pop(ev.core, None)
            if begin is not None:
                self.fallbacks.append(
                    FallbackSpan(core=ev.core, begin=begin,
                                 end=ev.cycle, label=ev.label)
                )

    def _close(self, core: int, epoch: int, **kw) -> None:
        open_ = self._open.get(core)
        if open_ is None or open_.epoch != epoch:
            return
        del self._open[core]
        self._record(open_.close(**kw))

    def _record(self, attempt: TxAttempt) -> None:
        self.attempts.append(attempt)
        self._index[attempt.key] = attempt

    # ------------------------------------------------------------------
    def attach(self) -> "TxLedger":
        if self.sim is None:
            raise RuntimeError("no simulator bound; subscribe manually")
        self.sim.probe.subscribe(self)
        return self

    def detach(self) -> None:
        if self.sim is not None:
            self.sim.probe.unsubscribe(self)

    def __enter__(self) -> "TxLedger":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    # ------------------------------------------------------------------
    def attempt(self, core: int, epoch: int) -> Optional[TxAttempt]:
        """The finished attempt ``(core, epoch)``, if it closed."""
        return self._index.get((core, epoch))

    def attempts_of(self, core: int) -> List[TxAttempt]:
        return [a for a in self.attempts if a.core == core]

    @property
    def commits(self) -> List[TxAttempt]:
        return [a for a in self.attempts if a.outcome == "committed"]

    @property
    def aborts(self) -> List[TxAttempt]:
        return [a for a in self.attempts if a.outcome == "aborted"]

    def cores(self) -> List[int]:
        """Cores that showed any transactional or fallback activity."""
        seen = {a.core for a in self.attempts}
        seen.update(s.core for s in self.fallbacks)
        return sorted(seen)

    def to_dict(self) -> Dict[str, object]:
        return {
            "attempts": [a.to_dict() for a in self.attempts],
            "forwards": [
                {
                    "cycle": e.cycle,
                    "producer": e.producer,
                    "producer_epoch": e.producer_epoch,
                    "consumer": e.consumer,
                    "consumer_epoch": e.consumer_epoch,
                    "block": e.block,
                    "pic": e.pic,
                }
                for e in self.edges
            ],
            "fallbacks": [
                {"core": s.core, "begin": s.begin, "end": s.end,
                 "label": s.label}
                for s in self.fallbacks
            ],
        }


#: Bucket names of the wasted-work accounting, in display order.
WASTED_WORK_BUCKETS = ("committed", "aborted_speculative", "fallback", "stalled")


@dataclass(frozen=True, slots=True)
class WastedWork:
    """Per-core cycle buckets: where each core's wall-clock time went.

    ``committed`` is time inside attempts that went on to commit,
    ``aborted_speculative`` is time inside attempts that rolled back (the
    paper's wasted speculative work), ``fallback`` is time holding the
    global lock, and ``stalled`` is the remainder — waiting for retries,
    coherence, or the lock (clamped at zero: overlapping accounting can
    otherwise push it negative for power transactions).
    """

    total_cycles: int
    per_core: Dict[int, Dict[str, int]]

    @classmethod
    def from_ledger(cls, ledger: TxLedger, total_cycles: int) -> "WastedWork":
        per_core: Dict[int, Dict[str, int]] = {}
        for core in ledger.cores():
            committed = sum(
                a.span for a in ledger.attempts
                if a.core == core and a.outcome == "committed"
            )
            aborted = sum(
                a.span for a in ledger.attempts
                if a.core == core and a.outcome == "aborted"
            )
            fallback = sum(
                s.span for s in ledger.fallbacks if s.core == core
            )
            stalled = max(0, total_cycles - committed - aborted - fallback)
            per_core[core] = {
                "committed": committed,
                "aborted_speculative": aborted,
                "fallback": fallback,
                "stalled": stalled,
            }
        return cls(total_cycles=total_cycles, per_core=per_core)

    def totals(self) -> Dict[str, int]:
        out = {bucket: 0 for bucket in WASTED_WORK_BUCKETS}
        for buckets in self.per_core.values():
            for bucket, cycles in buckets.items():
                out[bucket] += cycles
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "total_cycles": self.total_cycles,
            "per_core": {str(c): dict(b) for c, b in sorted(self.per_core.items())},
            "totals": self.totals(),
        }
