"""Tests for the experiment registry, runner cache, and figure functions
(on miniature workload subsets — the full figures run in benchmarks/)."""

import pytest

from repro.experiments import figures
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.runner import cache_size, clear_cache, run_cached
from repro.systems import paper


class TestRegistry:
    def test_every_figure_and_table_present(self):
        expected = {
            "table1",
            "table2",
            "fig1",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "figcap",
        }
        assert set(EXPERIMENTS) == expected

    def test_every_experiment_names_a_bench(self):
        import os

        for exp in EXPERIMENTS.values():
            assert exp.bench.startswith("benchmarks/")
            assert os.path.exists(exp.bench), f"{exp.bench} missing"

    def test_get_experiment_unknown(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_figures_registry_matches(self):
        assert set(figures.FIGURES) == {
            k for k in EXPERIMENTS if k.startswith("fig")
        }


class TestRunnerCache:
    def test_cache_hit_returns_same_object(self):
        clear_cache()
        a = run_cached("counter", paper.BASELINE, threads=2, scale=0.1)
        n = cache_size()
        b = run_cached("counter", paper.BASELINE, threads=2, scale=0.1)
        assert a is b
        assert cache_size() == n

    def test_distinct_configs_distinct_entries(self):
        clear_cache()
        run_cached("counter", paper.BASELINE, threads=2, scale=0.1)
        run_cached("counter", paper.CHATS, threads=2, scale=0.1)
        assert cache_size() == 2


TINY = ("kmeans-h", "ssca2")


def tiny_kwargs():
    import os

    os.environ.setdefault("REPRO_SCALE", "0.4")
    return {}


class TestFigureFunctions:
    """Each figure function must produce a well-formed FigureResult on a
    reduced workload set (full-size checks live in benchmarks/)."""

    def test_fig1(self):
        r = figures.fig1(workloads=TINY)
        assert set(r.series) == {"Baseline", "Naive R-S"}
        assert "Fig. 1" in r.rendering

    def test_fig4(self):
        r = figures.fig4(workloads=TINY)
        assert len(r.series) == 6
        assert all(r.series["Baseline"][w] == 1.0 for w in TINY)
        assert r.mean("CHATS") > 0

    def test_fig5(self):
        r = figures.fig5(workloads=TINY)
        assert "stacks" in r.extra
        assert "Baseline" in r.extra["stacks"]

    def test_fig6(self):
        r = figures.fig6(workloads=TINY)
        assert "CHATS" in r.series
        for v in r.series["CHATS"].values():
            assert 0.0 <= v <= 1.0

    def test_fig7(self):
        r = figures.fig7(workloads=TINY)
        assert r.series["Baseline"] == {w: 1.0 for w in TINY}

    def test_fig8(self):
        r = figures.fig8(workloads=("kmeans-h",))
        assert len(r.series) == 6  # 3 classes x 2 systems
        assert r.series["CHATS R/W"]["kmeans-h"] == 1.0

    def test_fig9(self):
        r = figures.fig9(workloads=("kmeans-h",), retries=(2, 32))
        assert "best_retries" in r.extra
        assert set(r.extra["best_retries"]) == {
            "Baseline",
            "CHATS",
            "Power",
            "PCHATS",
        }

    def test_fig10(self):
        r = figures.fig10(
            workloads=("kmeans-h",), sizes=(1, 4), intervals=(50, 100)
        )
        time = r.extra["time"]
        assert ("CHATS vsb=1", 50) in time
        assert ("PCHATS vsb=4", 100) in time

    def test_fig11(self):
        r = figures.fig11(workloads=TINY)
        assert set(r.series) == {"CHATS", "PCHATS", "LEVC-BE-Id"}

    def test_run_figure_dispatch(self):
        r = figures.run_figure("fig1", workloads=TINY)
        assert r.experiment_id == "fig1"
        with pytest.raises(KeyError):
            figures.run_figure("fig2")
