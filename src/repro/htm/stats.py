"""Statistics collected during simulation.

These counters back the paper's evaluation figures:

* Fig. 4 — execution time (``cycles``).
* Fig. 5 — aborted transactions split by :class:`AbortReason`.
* Fig. 6 — executed transactions that conflicted/forwarded, split by how
  the attempt finished (committed vs aborted).
* Fig. 7 — network flits (collected by the crossbar, merged here).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Mapping, Optional


class AbortReason(Enum):
    """Why a transaction attempt rolled back (Fig. 5 categories)."""

    CONFLICT = "conflict"  # requester-wins resolution chose us as victim
    VALIDATION = "validation"  # value mismatch on a speculated block
    CYCLE = "cycle"  # PiC rule detected a (potential) cycle
    CAPACITY = "capacity"  # SM line eviction or VSB pressure
    LOCK = "lock"  # fallback-lock subscription invalidated
    NAIVE_LIMIT = "naive-limit"  # naive R-S validation budget exhausted
    EXPLICIT = "explicit"  # workload/runtime requested the abort
    POWER = "power"  # lost a conflict against a power transaction
    HYBRID = "hybrid-slowpath"  # conflicted with a software slow-path txn


class AttemptOutcome(Enum):
    COMMITTED = "committed"
    ABORTED = "aborted"


# Module constants for event-path code, which names no member through
# its class (docs/PERFORMANCE.md, "Enum members on the event path").
CONFLICT = AbortReason.CONFLICT
VALIDATION = AbortReason.VALIDATION
CYCLE = AbortReason.CYCLE
CAPACITY = AbortReason.CAPACITY
LOCK = AbortReason.LOCK
NAIVE_LIMIT = AbortReason.NAIVE_LIMIT
EXPLICIT = AbortReason.EXPLICIT
POWER = AbortReason.POWER
HYBRID = AbortReason.HYBRID
COMMITTED = AttemptOutcome.COMMITTED
ABORTED = AttemptOutcome.ABORTED

# ``conflict_induced``: whether the abort counts against the retry/power
# thresholds.  The paper's retry thresholds and PowerTM elevation trigger
# count *conflict-induced* aborts; capacity and explicit aborts go
# straight to other handling.  A plain bool on each member (read-only by
# convention), as ``MessageKind.idx`` is.
_CONFLICT_INDUCED = frozenset(
    (CONFLICT, VALIDATION, CYCLE, NAIVE_LIMIT, POWER, LOCK, HYBRID)
)
for _reason in AbortReason:
    _reason.conflict_induced = _reason in _CONFLICT_INDUCED


#: HTMStats fields that never serialize (see ``HTMStats.to_dict``).
TRANSIENT_GAUGES = frozenset(
    {"committed_cycles", "aborted_cycles", "fallback_cycles"}
)


@dataclass(slots=True)
class AttemptRecord:
    """Fig. 6 bookkeeping for a single hardware transaction attempt."""

    conflicted: bool = False  # involved in any conflict (either side)
    forwarded: bool = False  # produced speculative data for someone
    consumed: bool = False  # received speculative data
    outcome: Optional[AttemptOutcome] = None
    reason: Optional[AbortReason] = None


@dataclass(slots=True)
class HTMStats:
    """Aggregate counters for one simulation run."""

    tx_attempts: int = 0
    tx_commits: int = 0
    tx_fallback_commits: int = 0  # executed under the global lock
    power_commits: int = 0  # committed holding the power token
    aborts: Counter = field(default_factory=Counter)  # AbortReason -> count
    spec_forwards: int = 0  # SpecResp messages produced
    validations_attempted: int = 0
    validations_succeeded: int = 0
    validation_mismatches: int = 0
    # VSB occupancy gauges: the deepest any core's VSB ever got, and the
    # total cycles commits spent fenced on a non-empty VSB (Section III-A).
    vsb_high_water: int = 0
    vsb_stall_cycles: int = 0
    # Wasted-work cycle gauges (the paper's Figs. 5-7 causal view): cycles
    # spent inside attempts that committed, inside attempts that rolled
    # back (wasted speculative work), and inside fallback-serialized
    # sections.  Transient — excluded from to_dict/from_dict (so cached
    # payloads and the golden determinism digests are unchanged) and from
    # equality (a cache-reloaded result must still compare equal to the
    # live run it was saved from); the forensics layer (repro inspect)
    # recomputes them from live runs and cross-checks them against the
    # TxLedger's buckets.
    committed_cycles: int = field(default=0, compare=False)
    aborted_cycles: int = field(default=0, compare=False)
    fallback_cycles: int = field(default=0, compare=False)
    # Per-transaction-site statistics (keyed by Txn.label, "" when unset).
    label_commits: Counter = field(default_factory=Counter)
    label_aborts: Counter = field(default_factory=Counter)
    # Fig. 6: attempts that conflicted/forwarded, split by outcome.
    conflicted_committed: int = 0
    conflicted_aborted: int = 0
    forwarder_committed: int = 0
    forwarder_aborted: int = 0
    consumer_committed: int = 0
    consumer_aborted: int = 0

    def record_attempt(self, record: AttemptRecord) -> None:
        committed = record.outcome is COMMITTED
        if record.conflicted:
            if committed:
                self.conflicted_committed += 1
            else:
                self.conflicted_aborted += 1
        if record.forwarded:
            if committed:
                self.forwarder_committed += 1
            else:
                self.forwarder_aborted += 1
        if record.consumed:
            if committed:
                self.consumer_committed += 1
            else:
                self.consumer_aborted += 1

    @property
    def total_aborts(self) -> int:
        return sum(self.aborts.values())

    def abort_breakdown(self) -> Dict[str, int]:
        return {reason.value: self.aborts.get(reason, 0) for reason in AbortReason}

    def label_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-transaction-site commit/abort counts (labels from Txn)."""
        labels = set(self.label_commits) | set(self.label_aborts)
        return {
            label: {
                "commits": self.label_commits.get(label, 0),
                "aborts": self.label_aborts.get(label, 0),
            }
            for label in sorted(labels)
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot of every counter (disk cache).

        The transient wasted-cycle gauges are omitted: they are an
        in-process forensic view, and serializing them would change the
        golden determinism digests pinned on this payload."""
        out: Dict[str, object] = {}
        for f in dataclasses.fields(self):
            if f.name in TRANSIENT_GAUGES:
                continue
            value = getattr(self, f.name)
            if f.name == "aborts":
                out[f.name] = {r.value: n for r, n in value.items() if n}
            elif isinstance(value, Counter):
                out[f.name] = {k: n for k, n in value.items() if n}
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "HTMStats":
        """Inverse of :meth:`to_dict`; unknown keys are rejected by the
        dataclass constructor, missing counters default to zero."""
        kwargs: Dict[str, object] = {}
        for f in dataclasses.fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            if f.name == "aborts":
                kwargs[f.name] = Counter(
                    {AbortReason(k): int(n) for k, n in value.items()}
                )
            elif f.name in ("label_commits", "label_aborts"):
                kwargs[f.name] = Counter(
                    {str(k): int(n) for k, n in value.items()}
                )
            else:
                kwargs[f.name] = int(value)
        return cls(**kwargs)

    def merge(self, other: "HTMStats") -> None:
        """Accumulate another core's counters into this one."""
        self.label_commits.update(other.label_commits)
        self.label_aborts.update(other.label_aborts)
        self.tx_attempts += other.tx_attempts
        self.tx_commits += other.tx_commits
        self.tx_fallback_commits += other.tx_fallback_commits
        self.power_commits += other.power_commits
        self.aborts.update(other.aborts)
        self.spec_forwards += other.spec_forwards
        self.validations_attempted += other.validations_attempted
        self.validations_succeeded += other.validations_succeeded
        self.validation_mismatches += other.validation_mismatches
        # A gauge, not a counter: the merged high water is the max.
        self.vsb_high_water = max(self.vsb_high_water, other.vsb_high_water)
        self.vsb_stall_cycles += other.vsb_stall_cycles
        self.committed_cycles += other.committed_cycles
        self.aborted_cycles += other.aborted_cycles
        self.fallback_cycles += other.fallback_cycles
        self.conflicted_committed += other.conflicted_committed
        self.conflicted_aborted += other.conflicted_aborted
        self.forwarder_committed += other.forwarder_committed
        self.forwarder_aborted += other.forwarder_aborted
        self.consumer_committed += other.consumer_committed
        self.consumer_aborted += other.consumer_aborted
