"""Causal abort attribution: *why* did each attempt roll back, and who
started it.

The abort counters (Fig. 5) say how many attempts died per
:class:`~repro.htm.stats.AbortReason`; they do not say which core's
action killed them, or that a single producer abort knocked down a whole
forwarding chain.  This module answers those questions from a
:class:`~repro.obs.ledger.TxLedger`:

* every aborted attempt is classified into a *cause kind* (see
  :data:`CAUSE_KINDS`) and, where the event stream allows, linked to the
  source core — and to the specific upstream *attempt* when the cause
  was another transaction's abort cascading through a forwarded value;
* ``producer-abort`` links are folded into **abort cascades**: trees
  rooted at a first-cause abort whose descendants all died validating
  (or re-validating) data the root had forwarded;
* the forwarding edges are linked into chains (shared
  :func:`~repro.obs.chains.link_chains` logic) for depth/length
  distributions.

Aborts whose trigger the events cannot name (directory races, and
conflict aborts predating the source-stamped events) are tagged
``unattributed`` rather than guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .chains import link_chains
from .ledger import ForwardEdge, TxAttempt, TxLedger

#: Every cause kind :func:`attribute_aborts` can assign, in display order.
#: ``unattributed`` is the only kind that does not name a concrete cause.
CAUSE_KINDS = (
    "conflict",  # another core's request won the conflict
    "producer-abort",  # upstream producer aborted; its value was stale
    "validation-mismatch",  # value changed under us (producer committed new)
    "pic-cycle",  # PiC rule fired on a validation response
    "naive-budget",  # naive R-S escape budget exhausted
    "power-token",  # lost against a power transaction
    "fallback-lock",  # global-lock subscription invalidated
    "hybrid-slowpath",  # conflicted with a software slow-path transaction
    "capacity",  # own footprint overflowed a capacity bound
    "explicit",  # workload requested the abort
    "unattributed",  # event stream cannot name the trigger
)

#: AbortReason.value → base cause kind (before upstream refinement).
_REASON_TO_KIND = {
    "conflict": "conflict",
    "validation": "validation-mismatch",
    "cycle": "pic-cycle",
    "naive-limit": "naive-budget",
    "power": "power-token",
    "lock": "fallback-lock",
    "hybrid-slowpath": "hybrid-slowpath",
    "capacity": "capacity",
    "explicit": "explicit",
}

#: Cause kinds refined through the forwarding edges to a producer attempt.
_VALIDATION_FAMILY = frozenset(
    {"validation-mismatch", "pic-cycle", "naive-budget"}
)


@dataclass(frozen=True, slots=True)
class AttributedAbort:
    """One aborted attempt with its resolved cause."""

    attempt: TxAttempt
    kind: str  # one of CAUSE_KINDS
    source_core: Optional[int] = None  # core whose action triggered it
    source_attempt: Optional[Tuple[int, int]] = None  # (core, epoch) upstream

    @property
    def attributed(self) -> bool:
        return self.kind != "unattributed"

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "core": self.attempt.core,
            "epoch": self.attempt.epoch,
            "cycle": self.attempt.end,
            "reason": self.attempt.reason,
            "kind": self.kind,
        }
        if self.source_core is not None:
            out["source_core"] = self.source_core
        if self.source_attempt is not None:
            out["source_attempt"] = list(self.source_attempt)
        return out


@dataclass(frozen=True, slots=True)
class Cascade:
    """An abort-cascade tree: a root abort and everything it took down."""

    root: Tuple[int, int]  # (core, epoch) of the first-cause abort
    members: Tuple[Tuple[int, int], ...]  # every attempt in the tree (incl. root)
    depth: int  # longest root→leaf path, in producer-abort hops

    @property
    def size(self) -> int:
        return len(self.members)

    def to_dict(self) -> Dict[str, object]:
        return {
            "root": list(self.root),
            "members": [list(m) for m in self.members],
            "size": self.size,
            "depth": self.depth,
        }


@dataclass(frozen=True, slots=True)
class AttributionReport:
    """Full attribution output for one run's ledger."""

    records: Tuple[AttributedAbort, ...]
    cascades: Tuple[Cascade, ...]
    chain_depths: Dict[int, int]  # chain depth (edges) -> count

    # ------------------------------------------------------------------
    def breakdown(self) -> Dict[str, int]:
        out = {kind: 0 for kind in CAUSE_KINDS}
        for rec in self.records:
            out[rec.kind] += 1
        return out

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def attributed(self) -> int:
        return sum(1 for rec in self.records if rec.attributed)

    @property
    def attributed_fraction(self) -> float:
        return self.attributed / self.total if self.total else 1.0

    def chain_stats(self) -> Dict[str, object]:
        total = sum(self.chain_depths.values())
        edges = sum(d * n for d, n in self.chain_depths.items())
        return {
            "chains": total,
            "forwards": edges,
            "max_depth": max(self.chain_depths) if self.chain_depths else 0,
            "mean_depth": edges / total if total else 0.0,
            "depth_histogram": {
                str(d): n for d, n in sorted(self.chain_depths.items())
            },
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "total_aborts": self.total,
            "attributed": self.attributed,
            "attributed_fraction": self.attributed_fraction,
            "breakdown": self.breakdown(),
            "cascades": [c.to_dict() for c in self.cascades],
            "chains": self.chain_stats(),
            "aborts": [rec.to_dict() for rec in self.records],
        }


# ----------------------------------------------------------------------
def _edge_into(ledger: TxLedger, attempt: TxAttempt) -> Optional[ForwardEdge]:
    """Last forwarding edge into ``attempt`` touching its abort block
    (any block when the abort did not name one)."""
    best: Optional[ForwardEdge] = None
    for edge in ledger.edges:
        if edge.consumer != attempt.core or edge.consumer_epoch != attempt.epoch:
            continue
        if attempt.block is not None and edge.block != attempt.block:
            continue
        if best is None or edge.cycle >= best.cycle:
            best = edge
    return best


def _covering_attempt(
    ledger: TxLedger, core: int, cycle: int
) -> Optional[TxAttempt]:
    """The attempt of ``core`` whose span covers ``cycle``, if any."""
    for a in ledger.attempts:
        if a.core == core and a.begin <= cycle <= a.end:
            return a
    return None


def attribute_aborts(ledger: TxLedger) -> AttributionReport:
    """Classify every aborted attempt in ``ledger`` (see module doc)."""
    records: List[AttributedAbort] = []
    for attempt in ledger.aborts:
        records.append(_attribute_one(ledger, attempt))
    cascades = _build_cascades(records)
    depths: Dict[int, int] = {}
    for chain in link_chains(ledger.edges):
        depths[chain.depth] = depths.get(chain.depth, 0) + 1
    return AttributionReport(
        records=tuple(records), cascades=tuple(cascades), chain_depths=depths
    )


def _attribute_one(ledger: TxLedger, attempt: TxAttempt) -> AttributedAbort:
    kind = _REASON_TO_KIND.get(attempt.reason or "", "unattributed")
    source_core = attempt.src
    source_attempt: Optional[Tuple[int, int]] = None

    if kind in _VALIDATION_FAMILY:
        # Resolve the producer whose forwarded value we were holding:
        # prefer the responder stamped on the abort; fall back to the
        # forwarding edge (directory-healed data has no core source).
        producer: Optional[Tuple[int, int]] = None
        if source_core is not None:
            covering = _covering_attempt(ledger, source_core, attempt.end)
            if covering is not None:
                producer = covering.key
        if producer is None:
            edge = _edge_into(ledger, attempt)
            if edge is not None and edge.producer_epoch >= 0:
                producer = (edge.producer, edge.producer_epoch)
                source_core = edge.producer
        if producer is not None:
            upstream = ledger.attempt(*producer)
            if (
                upstream is not None
                and upstream.outcome == "aborted"
                and upstream.end <= attempt.end
            ):
                # The value died because its producer died: a cascade.
                kind = "producer-abort"
            source_attempt = producer
        elif source_core is None and kind == "validation-mismatch":
            kind = "unattributed"
    elif kind == "conflict":
        if source_core is None:
            # Directory race (stale exclusive data): no core to blame.
            kind = "unattributed"
        else:
            covering = _covering_attempt(ledger, source_core, attempt.end)
            if covering is not None:
                source_attempt = covering.key
    elif kind == "power-token":
        if source_core is not None:
            covering = _covering_attempt(ledger, source_core, attempt.end)
            if covering is not None:
                source_attempt = covering.key
    elif kind == "fallback-lock":
        # Name the lock holder whose serialized span covers the abort.
        if source_core is None:
            for span in ledger.fallbacks:
                if span.begin <= attempt.end <= span.end:
                    source_core = span.core
                    break
    # "capacity" and "explicit" are self-caused: concrete, no source.
    # "hybrid-slowpath" keeps the slow-path core stamped on the event as
    # its source; software transactions have no hardware attempt to link.
    return AttributedAbort(
        attempt=attempt, kind=kind,
        source_core=source_core, source_attempt=source_attempt,
    )


def _build_cascades(records: List[AttributedAbort]) -> List[Cascade]:
    """Fold producer-abort links into trees, largest first."""
    parent: Dict[Tuple[int, int], Tuple[int, int]] = {}
    aborted = {rec.attempt.key for rec in records}
    for rec in records:
        if rec.kind == "producer-abort" and rec.source_attempt in aborted:
            parent[rec.attempt.key] = rec.source_attempt
    if not parent:
        return []
    children: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for child, par in parent.items():
        children.setdefault(par, []).append(child)
    roots = sorted(
        {par for par in parent.values() if par not in parent}
    )
    cascades: List[Cascade] = []
    for root in roots:
        members: List[Tuple[int, int]] = []
        depth = 0
        stack: List[Tuple[Tuple[int, int], int]] = [(root, 0)]
        while stack:
            node, d = stack.pop()
            members.append(node)
            depth = max(depth, d)
            for child in sorted(children.get(node, ())):
                stack.append((child, d + 1))
        cascades.append(
            Cascade(root=root, members=tuple(sorted(members)), depth=depth)
        )
    cascades.sort(key=lambda c: (-c.size, c.root))
    return cascades
