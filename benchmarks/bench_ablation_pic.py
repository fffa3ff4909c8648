"""Ablation (beyond the paper): PiC register width.

The 5-bit PiC bounds the length of forwarding chains: updates that would
overflow or underflow the register resolve to requester-wins.  This bench
sweeps the width on the chain-heavy workloads; narrower PiCs must not
break correctness (every run still passes its oracle) but cap chaining
and therefore performance.
"""

from __future__ import annotations

from repro.experiments.runner import run_cached
from repro.sim.config import table2_config
from repro.systems import paper

WORKLOADS = ("llb-l", "kmeans-l", "cadd")
WIDTHS = (3, 4, 5, 7)


def test_ablation_pic_width(run_once):
    def sweep():
        out = {}
        for bits in WIDTHS:
            htm = table2_config(paper.CHATS).replace(pic_bits=bits)
            out[bits] = {w: run_cached(w, paper.CHATS, htm=htm) for w in WORKLOADS}
        return out

    results = run_once(sweep)
    print()
    print("PiC width ablation (CHATS):")
    header = f"{'bits':>5s}" + "".join(f"{w:>12s}" for w in WORKLOADS) + f"{'forwards':>10s}"
    print(header)
    for bits in WIDTHS:
        row = results[bits]
        fwd = sum(r.stats.spec_forwards for r in row.values())
        cells = "".join(f"{row[w].cycles:>12,d}" for w in WORKLOADS)
        print(f"{bits:>5d}{cells}{fwd:>10d}")

    # Wider PiCs can only help chaining: the 5-bit default must forward
    # at least as much as the 3-bit register.
    fwd3 = sum(r.stats.spec_forwards for r in results[3].values())
    fwd5 = sum(r.stats.spec_forwards for r in results[5].values())
    assert fwd5 >= fwd3
    # The paper's 5-bit choice must be within a whisker of 7 bits.
    for w in WORKLOADS:
        assert results[5][w].cycles <= results[7][w].cycles * 1.10
