"""Integration matrix: every workload under every HTM system.

Each cell runs a scaled-down simulation to completion; the workload's
``verify()`` oracle checks the final committed state for atomicity /
serializability violations, and structural invariants of the machine are
checked afterwards (caches empty of speculation, directory quiescent,
token released).
"""

import pytest

import repro
from repro.sim.simulator import Simulator
from repro.systems import paper, paper_systems, registered_systems
from repro.workloads.base import make_workload

WORKLOADS = (
    "counter",
    "genome",
    "intruder",
    "kmeans-h",
    "kmeans-l",
    "labyrinth",
    "ssca2",
    "vacation",
    "yada",
    "llb-l",
    "llb-h",
    "cadd",
)


@pytest.mark.parametrize("system", registered_systems(), ids=str)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_system_cell(workload, system):
    wl = make_workload(workload, threads=8, seed=1, scale=0.15)
    sim = Simulator(wl, htm=repro.table2_config(system))
    result = sim.run(max_events=6_000_000)  # verify() runs inside

    # Machine quiescence invariants.
    assert result.total_commits > 0
    for core in sim.cores:
        assert core.tx is None, "no transaction may outlive the run"
        assert core.l1.cache.speculative_blocks() == []
        assert not core.l1._outstanding, "no dangling coherence requests"
    assert sim.power.holder is None, "the power token must be released"
    assert sim.memory.read_word(sim.lock.addr) == 0, "lock must be free"
    for block, entry in sim.directory._blocks.items():
        assert not entry.busy, f"directory block {block:#x} left busy"
        assert not entry.queue, f"directory block {block:#x} left queued"
        assert entry.inv_round is None

    # Forwarding only ever happens on forwarding systems.
    if not system.forwards:
        assert sim.stats.spec_forwards == 0


@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_counter_oracle_across_seeds_and_systems(seed):
    """The strictest serializability check (``verify()`` runs inside),
    repeated across seeds at 16 threads, where hybrid fallbacks race
    hardware commits."""
    iterations = make_workload("counter", threads=16, scale=0.2).iterations
    for system in registered_systems():
        result = repro.run_workload(
            "counter", system, threads=16, seed=seed, scale=0.2
        )
        assert result.total_commits == 16 * iterations


def test_thread_counts_below_core_count():
    result = repro.run_workload(
        "counter", paper.CHATS, threads=3, scale=0.2
    )
    assert result.total_commits > 0


def test_tiny_inputs_pass_their_oracles():
    """Threads that handle fewer packets than a flow deposit nothing, and
    one thread still has records for a whole cavity and its border."""
    for system in (paper.CHATS, paper.BASELINE):
        repro.run_workload("intruder", system, threads=2, scale=0.1)
        repro.run_workload("yada", system, threads=1, scale=0.05)


def test_single_thread_never_conflicts():
    for system in paper_systems():
        result = repro.run_workload("counter", system, threads=1, scale=0.3)
        assert result.total_aborts == 0
        assert result.stats.tx_fallback_commits == 0


def test_too_many_threads_rejected():
    with pytest.raises(ValueError, match="cores"):
        repro.run_workload("counter", threads=64)
