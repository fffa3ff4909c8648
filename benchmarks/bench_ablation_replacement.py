"""Ablation (beyond the paper): write-set-aware L1 replacement.

Section V-A notes that inserting speculatively received blocks into the
write set can cause false capacity aborts "although this situation is
unlikely since the replacement algorithm favors write-set blocks".  This
bench quantifies that favouritism on a deliberately tiny L1: with plain
LRU, transactional reads evict SM lines and every such eviction is a
capacity abort.
"""

from __future__ import annotations

from repro.htm.stats import AbortReason
from repro.sim.config import SystemConfig
from repro.systems import paper


def tiny_l1(aware: bool) -> SystemConfig:
    return SystemConfig(
        num_cores=16,
        l1_size_bytes=64 * 4 * 4,  # 16 lines: 4 sets x 4 ways
        l1_ways=4,
        write_set_aware_replacement=aware,
    )


def test_ablation_write_set_aware_replacement(run_once):
    from repro import run_workload

    def sweep():
        out = {}
        for aware in (True, False):
            out[aware] = {
                w: run_workload(
                    w, paper.CHATS, scale=0.3, config=tiny_l1(aware)
                )
                for w in ("cadd", "yada")
            }
        return out

    results = run_once(sweep)
    print()
    print("Write-set-aware replacement ablation (CHATS, 16-line L1):")
    print(f"{'workload':<10s}{'policy':<8s}{'cycles':>10s}{'capacity aborts':>16s}")
    for aware in (True, False):
        for w, r in results[aware].items():
            cap = r.stats.aborts[AbortReason.CAPACITY]
            label = "aware" if aware else "LRU"
            print(f"{w:<10s}{label:<8s}{r.cycles:>10,d}{cap:>16d}")

    cap_aware = sum(
        r.stats.aborts[AbortReason.CAPACITY] for r in results[True].values()
    )
    cap_lru = sum(
        r.stats.aborts[AbortReason.CAPACITY] for r in results[False].values()
    )
    # Plain LRU must produce at least as many capacity aborts.
    assert cap_lru >= cap_aware
