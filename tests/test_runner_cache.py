"""Tests for the experiment runner: cache-key completeness (the
system/max_events collision regression), the persistent disk cache, and
the parallel ``run_many`` fan-out."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import store as store_pkg
from repro.experiments import runner
from repro.experiments.figures import fig1
from repro.experiments.registry import experiment_configs
from repro.experiments.runner import (
    RunConfig,
    cache_size,
    clear_cache,
    counters,
    run_cached,
    run_many,
)
from repro.sim.config import SystemKind, table2_config
from repro.sim.results import SimulationResult

FAST = dict(threads=2, scale=0.1)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the disk cache at a fresh tmp dir and zero all counters."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setattr(runner, "_cache_dir_override", None)
    monkeypatch.setattr(runner, "_disk_cache_override", None)
    monkeypatch.setattr(runner, "_default_progress", None)
    store_pkg.drop_cached_instances()
    clear_cache()
    counters().reset()
    yield
    store_pkg.drop_cached_instances()
    clear_cache()
    counters().reset()


class TestKeyCompleteness:
    """Regression: the pre-fix key was (workload, htm, threads, seed,
    scale) — omitting ``system`` and ``max_events``."""

    def test_same_htm_different_system_does_not_collide(self):
        htm = table2_config(SystemKind.CHATS)
        a = run_cached("counter", SystemKind.CHATS, htm=htm, **FAST)
        b = run_cached("counter", SystemKind.LEVC, htm=htm, **FAST)
        # Two distinct cache entries, two real simulations — with the old
        # key the second call silently returned the first call's result.
        assert cache_size() == 2
        assert counters().simulations == 2
        assert a is not b

    def test_different_max_events_reruns(self):
        run_cached("counter", SystemKind.BASELINE, **FAST)
        run_cached(
            "counter", SystemKind.BASELINE, max_events=10_000_000, **FAST
        )
        assert counters().simulations == 2
        assert cache_size() == 2

    def test_identical_calls_still_hit(self):
        a = run_cached("counter", SystemKind.BASELINE, **FAST)
        b = run_cached("counter", SystemKind.BASELINE, **FAST)
        assert a is b
        assert counters().simulations == 1
        assert counters().memory_hits == 1


class TestDiskCache:
    def test_round_trip_equality(self):
        """A result reloaded from disk equals the original in every
        stats field (dataclass equality covers all counters)."""
        original = run_cached("counter", SystemKind.CHATS, **FAST)
        clear_cache()  # simulate a fresh process
        reloaded = run_cached("counter", SystemKind.CHATS, **FAST)
        assert counters().simulations == 1
        assert counters().disk_hits == 1
        assert reloaded == original
        assert reloaded.stats == original.stats
        assert reloaded.to_dict() == original.to_dict()

    def test_serialization_is_lossless(self):
        result = run_cached("llb-l", SystemKind.PCHATS, **FAST)
        assert SimulationResult.from_dict(result.to_dict()) == result

    def test_schema_version_bump_invalidates(self, monkeypatch):
        run_cached("counter", SystemKind.BASELINE, **FAST)
        clear_cache()
        monkeypatch.setattr(runner, "SCHEMA_VERSION", 999)
        run_cached("counter", SystemKind.BASELINE, **FAST)
        assert counters().simulations == 2
        assert counters().disk_hits == 0

    def test_no_cache_env_disables_disk(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        run_cached("counter", SystemKind.BASELINE, **FAST)
        clear_cache()
        run_cached("counter", SystemKind.BASELINE, **FAST)
        assert counters().simulations == 2
        assert counters().disk_hits == 0

    @pytest.mark.parametrize("store_kind", ["legacy", "sharded"])
    def test_corrupt_entry_is_a_miss(self, store_kind, recwarn):
        """An unparsable store entry is a warn-once miss in *both*
        backends — never an exception, never a stale result."""
        with store_pkg.use(store_kind):
            cfg = RunConfig.make("counter", SystemKind.BASELINE, **FAST)
            run_cached("counter", SystemKind.BASELINE, **FAST)
            store = runner.result_store()
            assert store.kind == store_kind
            # Overwrite the entry with bytes that are not JSON.
            store.put(runner.result_key(cfg.key()), b"{not json")
            clear_cache()
            run_cached("counter", SystemKind.BASELINE, **FAST)
            assert counters().simulations == 2
            assert store.counters.corrupt == 1
            assert any(
                issubclass(w.category, RuntimeWarning)
                and "cache miss" in str(w.message)
                for w in recwarn.list
            )


SWEEP = [
    RunConfig.make(w, s, **FAST)
    for w in ("counter", "llb-l")
    for s in (SystemKind.BASELINE, SystemKind.CHATS, SystemKind.PCHATS)
]


class TestRunMany:
    def test_parallel_matches_serial_bit_identical(self):
        """workers=2 must produce byte-identical results to the serial
        path on two workloads x three systems (acceptance criterion)."""
        serial = run_many(SWEEP, workers=1, use_cache=False)
        parallel = run_many(SWEEP, workers=2, use_cache=False)
        assert [r.to_dict() for r in serial] == [
            r.to_dict() for r in parallel
        ]

    def test_deduplicates_before_dispatch(self):
        cfg = SWEEP[0]
        results = run_many([cfg, cfg, cfg], workers=2, use_cache=False)
        assert counters().simulations == 1
        assert len(results) == 3
        assert results[0] is results[1] is results[2]

    def test_results_in_input_order(self):
        results = run_many(SWEEP, workers=2)
        for cfg, result in zip(SWEEP, results):
            assert result.workload == cfg.workload
            assert result.system == cfg.system.value

    def test_populates_shared_cache(self):
        run_many(SWEEP[:3], workers=2)
        assert counters().simulations == 3
        for cfg in SWEEP[:3]:
            run_cached(
                cfg.workload,
                cfg.system,
                threads=cfg.threads,
                seed=cfg.seed,
                scale=cfg.scale,
            )
        assert counters().simulations == 3  # all warm

    def test_failure_surfaces_offending_config(self):
        bad = RunConfig.make("no-such-workload", SystemKind.BASELINE, **FAST)
        with pytest.raises(RuntimeError, match="no-such-workload"):
            run_many([bad] + SWEEP[:2], workers=2, use_cache=False)

    def test_serial_failure_surfaces_too(self):
        bad = RunConfig.make("no-such-workload", SystemKind.BASELINE, **FAST)
        with pytest.raises(RuntimeError, match="no-such-workload"):
            run_many([bad], workers=1, use_cache=False)

    def test_progress_streamed(self):
        seen = []
        run_many(
            SWEEP[:2],
            workers=1,
            progress=lambda done, total, cfg, src: seen.append(
                (done, total, src)
            ),
        )
        assert [s[:2] for s in seen] == [(1, 2), (2, 2)]
        # Re-run: both cells now arrive from the cache.
        seen.clear()
        run_many(
            SWEEP[:2],
            workers=1,
            progress=lambda done, total, cfg, src: seen.append(src),
        )
        assert seen == ["cached", "cached"]


class TestFigureSweepCaching:
    """Acceptance: a figure sweep run twice is a cache hit the second
    time — zero simulations re-executed, verified by the counter."""

    def test_second_figure_run_is_free(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        monkeypatch.setenv("REPRO_THREADS", "4")
        fig1(workloads=("counter", "llb-l"))
        first = counters().simulations
        assert first > 0
        fig1(workloads=("counter", "llb-l"))
        assert counters().simulations == first

    def test_second_run_from_disk_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        monkeypatch.setenv("REPRO_THREADS", "4")
        fig1(workloads=("counter",))
        first = counters().simulations
        clear_cache()  # fresh process: only the disk cache survives
        fig1(workloads=("counter",))
        assert counters().simulations == first
        assert counters().disk_hits > 0


class TestExperimentConfigs:
    def test_main_sweep_declares_all_cells(self):
        cfgs = experiment_configs("fig4", workloads=("counter", "llb-l"))
        assert len(cfgs) == 2 * 6  # workloads x six systems
        assert len({c.key() for c in cfgs}) == len(cfgs)

    def test_fig9_sweep_parameterized(self):
        cfgs = experiment_configs(
            "fig9", workloads=("counter",), retries=(2, 32)
        )
        assert len(cfgs) == 4 * 2  # four systems x two retry values
        assert {c.htm.retries for c in cfgs} == {2, 32}

    def test_tables_have_no_cells(self):
        assert experiment_configs("table1") == []

    def test_figure_prefetch_covers_figure_needs(self, monkeypatch):
        """The declared set must be a superset of what the figure
        actually consumes: after run_many(configs), assembling the
        figure triggers zero additional simulations."""
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        monkeypatch.setenv("REPRO_THREADS", "4")
        run_many(experiment_configs("fig11", workloads=("counter",)))
        ran = counters().simulations
        fig11 = __import__(
            "repro.experiments.figures", fromlist=["fig11"]
        ).fig11
        fig11(workloads=("counter",))
        assert counters().simulations == ran


class TestCodeFingerprint:
    def test_covers_the_c_hot_core(self, monkeypatch):
        """Results cached under an older ``_hotcore.c`` must miss."""
        monkeypatch.setattr(runner, "_CODE_FINGERPRINT", None)
        before = runner._code_fingerprint()
        read_bytes = Path.read_bytes

        def edited(path):
            data = read_bytes(path)
            return data + b"/* edited */" if path.name == "_hotcore.c" else data

        monkeypatch.setattr(Path, "read_bytes", edited)
        monkeypatch.setattr(runner, "_CODE_FINGERPRINT", None)
        assert runner._code_fingerprint() != before


class TestForeignClaims:
    def test_lost_reclaim_waits_instead_of_executing(self, monkeypatch):
        """A peer holds the claim, gives it up without storing, and a
        third live peer wins the re-claim: ``run_many`` waits for that
        peer's result instead of simulating the config itself."""
        cfg = RunConfig.make("counter", SystemKind.BASELINE, **FAST)
        key = runner.result_key(cfg.key())
        peer_result = runner._execute(cfg)
        store = runner.result_store()
        waits = []

        def wait_for(store_key, **kwargs):
            waits.append(store_key)
            if len(waits) == 1:
                return None  # the first holder released without storing
            store.put(store_key, runner._result_payload(cfg, peer_result))
            return store.get(store_key)

        monkeypatch.setattr(store, "claim", lambda store_key: None)
        monkeypatch.setattr(store, "wait_for", wait_for)
        (result,) = run_many([cfg], workers=1)
        assert counters().simulations == 0
        assert waits == [key, key]
        assert result.to_dict() == peer_result.to_dict()
        assert runner.last_manifest().entry_for(cfg).source == "cached"
