"""Forwarding-chain reconstruction for post-mortem debugging.

CHATS' correctness story revolves around *chains*: producer → consumer
edges created by speculative forwarding, ordered by the PiC registers.
When a run misbehaves (cycle aborts, cascading validation failures) the
question is always "what did the chain look like?" — which no aggregate
counter answers.

A :class:`~repro.obs.ledger.TxLedger` records every forwarding edge
(with the PiC stamped on the SpecResp at forward time) and every abort.
:func:`link_chains` links its edges into linear chains, and
:func:`render_chains` dumps them with the consumer aborts that followed
(``repro trace --chains``).

Example::

    ledger = TxLedger()
    runner.simulate(cfg, ledger)
    print(render_chains(ledger))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from .ledger import ForwardEdge, TxLedger


@dataclass
class Chain:
    """A maximal linear sequence of forwarding edges."""

    edges: List[ForwardEdge]

    @property
    def depth(self) -> int:
        return len(self.edges)

    @property
    def start_cycle(self) -> int:
        return self.edges[0].cycle

    @property
    def end_cycle(self) -> int:
        return self.edges[-1].cycle


def link_chains(edges: Iterable[ForwardEdge]) -> List[Chain]:
    """Link forwarding edges (in cycle order) into maximal linear chains.

    A producer forwarding to several consumers forks: the first consumer
    extends the chain, later ones start new chains anchored at the fork.
    Shared by :func:`render_chains` and the forensics attribution pass
    (:mod:`repro.obs.attribution`), so both agree on what a chain is.
    """
    chains: List[Chain] = []
    #: consumer core -> chain currently ending at that core.
    open_ends: Dict[int, Chain] = {}
    for edge in sorted(edges, key=lambda e: e.cycle):
        chain = open_ends.pop(edge.producer, None)
        if chain is None:
            chain = Chain(edges=[edge])
            chains.append(chain)
        else:
            chain.edges.append(edge)
        open_ends[edge.consumer] = chain
    return chains


def render_chains(ledger: TxLedger) -> str:
    """Human-readable dump of ``ledger``'s forwarding chains; each hop is
    followed by its consumer's first abort at or after the forward."""
    chains = link_chains(ledger.edges)
    if not chains:
        return "no speculative forwarding observed"
    aborts: Dict[int, List[Tuple[int, str]]] = {}
    for attempt in ledger.aborts:
        aborts.setdefault(attempt.core, []).append(
            (attempt.end, attempt.reason)
        )
    for per_core in aborts.values():
        per_core.sort()
    lines = [f"{len(chains)} chain(s), {len(ledger.edges)} forward(s)"]
    for i, chain in enumerate(chains, 1):
        lines.append(
            f"chain #{i}: depth={chain.depth} "
            f"cycles={chain.start_cycle}..{chain.end_cycle}"
        )
        hops = [f"T{chain.edges[0].producer}"]
        for e in chain.edges:
            pic = "power" if e.pic is None else f"PiC={e.pic}"
            hops.append(f"-[blk={e.block:#x} {pic} @{e.cycle}]-> T{e.consumer}")
        lines.append("  " + " ".join(hops))
        for e in chain.edges:
            for when, reason in aborts.get(e.consumer, ()):
                if when >= e.cycle:
                    lines.append(
                        f"  ! consumer T{e.consumer} aborted "
                        f"({reason}) at cycle {when}"
                    )
                    break
    return "\n".join(lines)
