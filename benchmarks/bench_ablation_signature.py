"""Ablation (beyond the paper): the perfect-signature assumption.

The paper's baseline uses a *perfect* read-set signature (Section VI-B,
following commercial RTM whose read sets may exceed the L1).  Real
hardware signatures are Bloom filters whose false positives surface as
spurious conflicts.  This bench sweeps signature sizes under CHATS: tiny
filters must degrade performance through phantom conflicts while large
ones converge to the perfect signature.
"""

from __future__ import annotations

from repro.experiments.runner import run_cached
from repro.sim.config import table2_config
from repro.systems import paper

WORKLOADS = ("kmeans-h", "llb-l", "vacation")
SIZES = (64, 256, 2048, None)  # None = perfect


def test_ablation_signature_size(run_once):
    def sweep():
        out = {}
        for bits in SIZES:
            htm = table2_config(paper.CHATS).replace(signature_bits=bits)
            out[bits] = {
                w: run_cached(w, paper.CHATS, htm=htm) for w in WORKLOADS
            }
        return out

    results = run_once(sweep)
    print()
    print("Read-set signature ablation (CHATS):")
    header = f"{'signature':>10s}" + "".join(f"{w:>12s}" for w in WORKLOADS)
    print(header + f"{'total aborts':>14s}")
    for bits in SIZES:
        row = results[bits]
        label = "perfect" if bits is None else f"{bits}b"
        cells = "".join(f"{row[w].cycles:>12,d}" for w in WORKLOADS)
        aborts = sum(r.total_aborts for r in row.values())
        print(f"{label:>10s}{cells}{aborts:>14d}")

    perfect = results[None]
    big = results[2048]
    small = results[64]
    # A generous Bloom filter behaves like the perfect signature...
    for w in WORKLOADS:
        assert big[w].cycles <= perfect[w].cycles * 1.30
    # ...while a saturated one must cost spurious conflicts somewhere.
    total_small = sum(r.total_aborts for r in small.values())
    total_perfect = sum(r.total_aborts for r in perfect.values())
    assert total_small >= total_perfect
