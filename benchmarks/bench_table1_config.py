"""Table I — system parameters of the simulated machine.

Verifies the machine model matches the paper's configuration and times a
reference simulation on it (the configuration itself has no runtime, so
the bench exercises a short kmeans run on the Table I machine).
"""

from __future__ import annotations

from repro.experiments.runner import run_cached
from repro.sim.config import SystemConfig
from repro.systems import paper


def test_table1_machine_model(run_once):
    config = SystemConfig()
    # Table I invariants.
    assert config.num_cores == 16
    assert config.l1_size_bytes == 48 * 1024 and config.l1_ways == 12
    assert config.l1_sets == 64 and config.l1_lines == 768
    assert config.block_bytes == 64
    assert config.flit_bytes == 16
    assert config.data_message_flits == 5  # 64B line + header over 16B flits
    assert config.control_message_flits == 1
    assert config.link_latency == 1  # single-cycle crossbar
    assert config.l3_roundtrip == 30

    result = run_once(
        run_cached, "kmeans-l", paper.BASELINE, scale=0.2
    )
    assert result.total_commits > 0
    print()
    print("Table I machine:", config)
    print(
        f"reference run: {result.cycles} cycles, "
        f"{result.total_commits} commits on 16 cores"
    )
