"""Table II — per-system HTM configurations.

Checks the Table II values and times one contended run per system under
its table configuration, demonstrating all six systems are operational.
"""

from __future__ import annotations

from repro.experiments.runner import run_cached
from repro.sim.config import table2_config
from repro.systems import ForwardClass, paper, paper_systems


def test_table2_configurations(run_once):
    expected_retries = {
        paper.BASELINE: 6,
        paper.NAIVE_RS: 2,
        paper.CHATS: 32,
        paper.POWER: 2,
        paper.PCHATS: 1,
        paper.LEVC: 64,
    }
    for system in paper_systems():
        htm = table2_config(system)
        assert htm.retries == expected_retries[system]
        if system.forwards:
            assert htm.vsb_size == 4
            assert htm.forward_class is ForwardClass.R_RESTRICT_W
            assert htm.validation_interval == (0 if system is paper.LEVC else 50)
        else:
            assert htm.vsb_size is None

    def run_all():
        return {
            system: run_cached("kmeans-h", system, scale=0.25)
            for system in paper_systems()
        }

    results = run_once(run_all)
    print()
    for system, r in results.items():
        print(
            f"Table II {system.name:18s} cycles={r.cycles:8d} "
            f"commits={r.total_commits} aborts={r.total_aborts}"
        )
    # CHATS' storage budget (the <280-byte claim): 4 x (64B data + tag +
    # valid) + PiC (5b) + Cons (1b).
    htm = table2_config(paper.CHATS)
    entry_bits = 64 * 8 + (48 - 6) + 1  # data + 42b tag + valid bit
    total_bits = htm.vsb_size * entry_bits + htm.pic_bits + 1
    assert total_bits / 8 < 280, "CHATS must fit in <280 bytes per core"
    print(f"CHATS per-core storage: {total_bits / 8:.1f} bytes (< 280)")
