"""Scale-stability: the paper's qualitative results must not depend on
the particular input scale chosen for the benches."""

import pytest

import repro
from repro.systems import paper


@pytest.mark.parametrize("scale", [0.15, 0.35])
def test_chats_beats_baseline_on_kmeans_at_any_scale(scale):
    base = repro.run_workload("kmeans-h", paper.BASELINE, seed=1, scale=scale)
    chats = repro.run_workload("kmeans-h", paper.CHATS, seed=1, scale=scale)
    assert chats.cycles < base.cycles


@pytest.mark.parametrize("scale", [0.15, 0.35])
def test_flat_workload_stays_flat(scale):
    base = repro.run_workload("ssca2", paper.BASELINE, seed=1, scale=scale)
    chats = repro.run_workload("ssca2", paper.CHATS, seed=1, scale=scale)
    assert abs(chats.cycles - base.cycles) / base.cycles < 0.2


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_chats_win_is_seed_robust(seed):
    base = repro.run_workload("llb-l", paper.BASELINE, seed=seed, scale=0.25)
    chats = repro.run_workload("llb-l", paper.CHATS, seed=seed, scale=0.25)
    assert chats.cycles < base.cycles


def test_scale_grows_work_monotonically():
    small = repro.run_workload("yada", paper.BASELINE, scale=0.15)
    large = repro.run_workload("yada", paper.BASELINE, scale=0.5)
    assert large.total_commits > small.total_commits
    assert large.cycles > small.cycles
