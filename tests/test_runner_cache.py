"""Tests for the experiment runner: cache-key completeness (the
system/max_events collision regression), the persistent disk cache, and
the parallel ``run_many`` fan-out."""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro import store as store_pkg
from repro.experiments import runner
from repro.experiments.figures import (
    FIGURE_DOC_SCHEMA,
    FIGURES,
    _figure_doc_key,
    fig1,
    run_figure,
)
from repro.experiments.registry import experiment_configs
from repro.experiments.runner import (
    RunConfig,
    cache_size,
    clear_cache,
    last_manifest,
    run_cached,
    run_many,
)
from repro.sim.config import table2_config
from repro.sim.results import SimulationResult
from repro.systems import ForwardClass, paper, registered_systems

FAST = dict(threads=2, scale=0.1)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the disk cache at a fresh tmp dir with no shared state."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setattr(runner, "_cache_dir_override", None)
    monkeypatch.setattr(runner, "_disk_cache_override", None)
    monkeypatch.setattr(runner, "_default_progress", None)
    store_pkg.drop_cached_instances()
    clear_cache()
    yield
    store_pkg.drop_cached_instances()
    clear_cache()


def sources() -> list:
    """Manifest sources of the last batch, one per distinct config."""
    return [e.source for e in last_manifest().entries]


class TestKeyCompleteness:
    """Regression: the pre-fix key was (workload, htm, threads, seed,
    scale) — omitting ``system`` and ``max_events``."""

    def test_same_htm_different_system_does_not_collide(self):
        htm = table2_config(paper.CHATS)
        a = run_cached("counter", paper.CHATS, htm=htm, **FAST)
        assert sources() == ["run"]
        b = run_cached(
            "counter", paper.LEVC, htm=htm.replace(system=paper.LEVC), **FAST
        )
        # Two distinct cache entries, two real simulations — with the old
        # key the second call silently returned the first call's result.
        assert cache_size() == 2
        assert sources() == ["run"]
        assert a is not b

    def test_htm_for_another_system_is_rejected(self):
        """A config simulates the system its ``htm`` is configured for,
        so an ``htm`` naming a different system cannot be described as
        this one."""
        with pytest.raises(ValueError, match="baseline"):
            RunConfig.make(
                "counter", paper.CHATS, htm=table2_config(paper.BASELINE)
            )
        cfg = RunConfig.make(
            "counter", "htm-be", htm=table2_config(paper.BASELINE)
        )
        assert cfg.system is cfg.htm.system is paper.BASELINE

    def test_different_max_events_reruns(self):
        run_cached("counter", paper.BASELINE, **FAST)
        assert sources() == ["run"]
        run_cached(
            "counter", paper.BASELINE, max_events=10_000_000, **FAST
        )
        assert sources() == ["run"]
        assert cache_size() == 2

    def test_identical_calls_still_hit(self):
        a = run_cached("counter", paper.BASELINE, **FAST)
        b = run_cached("counter", paper.BASELINE, **FAST)
        assert a is b
        assert sources() == ["memory"]

    @staticmethod
    def asdict_form(cfg: RunConfig) -> dict:
        """``to_dict`` as it was built with ``dataclasses.asdict``."""
        htm = dataclasses.asdict(cfg.htm)
        htm["system"] = cfg.htm.system.name
        if cfg.htm.forward_class is not None:
            htm["forward_class"] = cfg.htm.forward_class.value
        return {
            "workload": cfg.workload,
            "system": cfg.system.name,
            "htm": htm,
            "threads": cfg.threads,
            "seed": cfg.seed,
            "scale": cfg.scale,
            "max_events": cfg.max_events,
            "metrics_window": cfg.metrics_window,
        }

    def test_to_dict_is_the_asdict_form(self):
        """Cache keys and pinned sweep digests hash ``json.dumps`` of
        ``to_dict()``, so its text, key order included, must not move."""
        configs = [
            RunConfig.make("genome", spec, threads=4, seed=1, scale=0.2)
            for spec in registered_systems()
        ]
        htm = table2_config(paper.CHATS).replace(forward_class=ForwardClass.W)
        configs.append(
            RunConfig.make("llb-h", paper.CHATS, htm=htm, threads=8, seed=2,
                           scale=0.2, metrics_window=500)
        )
        assert len(configs) == 14
        for cfg in configs:
            assert json.dumps(cfg.to_dict()) == json.dumps(self.asdict_form(cfg))

    def test_golden_key(self, monkeypatch):
        monkeypatch.setattr(runner, "_CODE_FINGERPRINT", "0" * 64)
        cfg = RunConfig.make("genome", "chats", threads=16, seed=3, scale=0.4)
        assert cfg.key() == (
            "9fce94690204ff0c96901486b969470ad331d6d115ec013e7026c3bcd8c899e8"
        )


class TestDiskCache:
    def test_round_trip_equality(self):
        """A result reloaded from disk equals the original in every
        stats field (dataclass equality covers all counters)."""
        original = run_cached("counter", paper.CHATS, **FAST)
        clear_cache()  # simulate a fresh process
        reloaded = run_cached("counter", paper.CHATS, **FAST)
        assert sources() == ["disk"]
        assert reloaded == original
        assert reloaded.stats == original.stats
        assert reloaded.to_dict() == original.to_dict()

    def test_serialization_is_lossless(self):
        result = run_cached("llb-l", paper.PCHATS, **FAST)
        assert SimulationResult.from_dict(result.to_dict()) == result

    def test_schema_version_bump_invalidates(self, monkeypatch):
        run_cached("counter", paper.BASELINE, **FAST)
        clear_cache()
        monkeypatch.setattr(runner, "SCHEMA_VERSION", 999)
        run_cached("counter", paper.BASELINE, **FAST)
        assert sources() == ["run"]

    def test_no_cache_env_disables_disk(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        run_cached("counter", paper.BASELINE, **FAST)
        clear_cache()
        run_cached("counter", paper.BASELINE, **FAST)
        assert sources() == ["run"]

    # One store; the parameter keeps this test's id ("[sharded]").
    @pytest.mark.parametrize("store_kind", ["sharded"])
    def test_corrupt_entry_is_a_miss(self, store_kind, recwarn):
        """An unparsable store entry is a warn-once miss — never an
        exception, never a stale result."""
        cfg = RunConfig.make("counter", paper.BASELINE, **FAST)
        run_cached("counter", paper.BASELINE, **FAST)
        store = runner.result_store()
        # Overwrite the entry with bytes that are not JSON.
        store.put(runner.result_key(cfg.key()), b"{not json")
        clear_cache()
        run_cached("counter", paper.BASELINE, **FAST)
        assert sources() == ["run"]
        assert store.counters.corrupt == 1
        assert any(
            issubclass(w.category, RuntimeWarning)
            and "cache miss" in str(w.message)
            for w in recwarn.list
        )

    def test_undecodable_result_is_one_corrupt_read(self, recwarn):
        """Valid JSON with the result schema tag that holds no
        ``SimulationResult`` is one corrupt read (not also a hit) and
        re-simulates."""
        cfg = RunConfig.make("counter", paper.BASELINE, **FAST)
        store = runner.result_store()
        doc = {"schema": runner.SCHEMA_VERSION, "result": {"cycles": 3}}
        store.put(runner.result_key(cfg.key()), json.dumps(doc).encode())
        result = run_cached("counter", paper.BASELINE, **FAST)
        assert sources() == ["run"]
        assert (store.counters.hits, store.counters.corrupt) == (0, 1)
        assert result.cycles != 3


SWEEP = [
    RunConfig.make(w, s, **FAST)
    for w in ("counter", "llb-l")
    for s in (paper.BASELINE, paper.CHATS, paper.PCHATS)
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

    def test_each_executed_config_is_one_store_miss(self):
        """An executed config costs exactly one counted store lookup, a
        miss, and one put."""
        run_many(SWEEP[:3], workers=1)
        store = runner.result_store()
        assert store.counters.misses == 3
        assert store.counters.puts == 3
        assert store.counters.hits == 0

    def test_deduplicates_before_dispatch(self):
        cfg = SWEEP[0]
        results = run_many([cfg, cfg, cfg], workers=2, use_cache=False)
        assert sources() == ["run"]
        assert len(results) == 3
        assert results[0] is results[1] is results[2]

    def test_warm_batch_keys_each_config_once(self, monkeypatch):
        run_many(SWEEP, workers=1)
        calls = []
        key = RunConfig.key
        monkeypatch.setattr(
            RunConfig, "key", lambda cfg: calls.append(cfg) or key(cfg)
        )
        run_many(SWEEP, workers=1)
        assert sources() == ["memory"] * len(SWEEP)
        assert len(calls) == len(SWEEP)

    def test_results_in_input_order(self):
        results = run_many(SWEEP, workers=2)
        for cfg, result in zip(SWEEP, results):
            assert result.workload == cfg.workload
            assert result.system == cfg.system.name

    def test_populates_shared_cache(self):
        run_many(SWEEP[:3], workers=2)
        assert sources() == ["run"] * 3
        for cfg in SWEEP[:3]:
            run_cached(
                cfg.workload,
                cfg.system,
                threads=cfg.threads,
                seed=cfg.seed,
                scale=cfg.scale,
            )
            assert sources() == ["memory"]

    def test_uncached_batch_never_opens_the_store(self, tmp_path, monkeypatch):
        """``use_cache=False`` neither reads nor writes the store, so a
        cache directory whose store cannot open does not stop the run."""
        squatted = tmp_path / "squatted"
        squatted.mkdir()
        (squatted / "store").write_text("")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(squatted))
        cfg = RunConfig.make("synth", "chats", threads=2, scale=0.05, seed=1)
        [result] = run_many([cfg], workers=1, use_cache=False)
        assert result.workload == "synth"
        assert sources() == ["run"]
        assert (squatted / "store").is_file()

    def test_failure_surfaces_offending_config(self):
        bad = RunConfig.make("no-such-workload", paper.BASELINE, **FAST)
        with pytest.raises(RuntimeError, match="no-such-workload"):
            run_many([bad] + SWEEP[:2], workers=2, use_cache=False)

    def test_serial_failure_surfaces_too(self):
        bad = RunConfig.make("no-such-workload", paper.BASELINE, **FAST)
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
        assert seen == ["memory", "memory"]
        # A fresh process: both now arrive from the store.
        seen.clear()
        clear_cache()
        run_many(
            SWEEP[:2],
            workers=1,
            progress=lambda done, total, cfg, src: seen.append(src),
        )
        assert seen == ["disk", "disk"]


class TestFigureSweepCaching:
    """Acceptance: a figure sweep run twice is a cache hit the second
    time — zero simulations re-executed, verified by the counter."""

    def test_second_figure_run_is_free(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        monkeypatch.setenv("REPRO_THREADS", "4")
        fig1(workloads=("counter", "llb-l"))
        assert last_manifest().executed > 0
        fig1(workloads=("counter", "llb-l"))
        assert last_manifest().executed == 0

    def test_second_run_from_disk_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        monkeypatch.setenv("REPRO_THREADS", "4")
        fig1(workloads=("counter",))
        clear_cache()  # fresh process: only the disk cache survives
        fig1(workloads=("counter",))
        assert set(sources()) == {"disk"}

    def test_foreign_figure_document_is_reassembled(self, monkeypatch):
        """A figure document whose schema tag is not this build's is a
        counted corrupt miss: the figure is assembled again and its
        document replaces the foreign one."""
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        monkeypatch.setenv("REPRO_THREADS", "4")
        kwargs = {"workloads": ("counter",)}
        key = _figure_doc_key("fig1", kwargs)
        store = runner.result_store()
        foreign = {"schema": FIGURE_DOC_SCHEMA + "-old", "experiment_id":
                   "fig1", "title": "stale", "series": {}, "rendering": "stale"}
        store.put(key, json.dumps(foreign).encode())
        with pytest.warns(RuntimeWarning, match="schema tag"):
            result = run_figure("fig1", **kwargs)
        assert result.rendering != "stale"
        assert (store.counters.hits, store.counters.corrupt) == (0, 1)
        assert run_figure("fig1", **kwargs).rendering == result.rendering
        assert store.counters.hits == 1


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
        """Every figure's declared set must be a superset of what the
        figure actually consumes: after run_many(configs), assembling
        the figure triggers zero additional simulations."""
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        monkeypatch.setenv("REPRO_THREADS", "4")
        for figure_id, figure in sorted(FIGURES.items()):
            run_many(experiment_configs(figure_id, workloads=("counter",)))
            figure(workloads=("counter",))
            assert last_manifest().executed == 0, figure_id


class TestCodeFingerprint:
    def test_covers_the_engine_source(self, monkeypatch):
        """Results cached under an older ``sim/engine.py`` must miss."""
        monkeypatch.setattr(runner, "_CODE_FINGERPRINT", None)
        before = runner._code_fingerprint()
        read_bytes = Path.read_bytes

        def edited(path):
            data = read_bytes(path)
            edit = path.parts[-2:] == ("sim", "engine.py")
            return data + b"# edited\n" if edit else data

        monkeypatch.setattr(Path, "read_bytes", edited)
        monkeypatch.setattr(runner, "_CODE_FINGERPRINT", None)
        assert runner._code_fingerprint() != before


class _CountingPool(runner.ProcessPoolExecutor):
    """A process pool that records how many configs each task carries."""

    chunks: list = []

    def submit(self, fn, /, *args, **kwargs):
        _CountingPool.chunks.append(len(args[0]))
        return super().submit(fn, *args, **kwargs)


class TestChunkedDispatch:
    """A pooled batch's misses travel to the workers in chunks of
    configs, while each config keeps its own attempt, spans, manifest
    entry, store put and progress line."""

    CONFIGS = [RunConfig.make("counter", "htm-be", seed=s, **FAST) for s in range(1, 25)]

    @pytest.fixture
    def pool_tasks(self, monkeypatch):
        monkeypatch.setattr(_CountingPool, "chunks", [])
        monkeypatch.setattr(runner, "ProcessPoolExecutor", _CountingPool)
        return _CountingPool.chunks

    def test_chunks_shrink_by_the_queue_rule(self, pool_tasks):
        # ceil(remaining / (4 * 2)) of the 24 configs still queued.
        run_many(self.CONFIGS, workers=2, use_cache=False)
        assert pool_tasks == [3, 3, 3, 2, 2, 2, 2] + [1] * 7

    def test_small_batches_keep_one_config_per_task(self, pool_tasks):
        run_many(self.CONFIGS[:8], workers=2, use_cache=False)
        assert pool_tasks == [1] * 8

    def test_chunked_batch_matches_serial(self, pool_tasks):
        from repro.obs import telemetry as fleet

        serial = run_many(self.CONFIGS, workers=1, use_cache=False)
        assert pool_tasks == []
        seen = []
        with fleet.session_scope() as session:
            pooled = run_many(
                self.CONFIGS,
                workers=2,
                progress=lambda done, total, cfg, src: seen.append((done, src)),
            )
        assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]
        assert last_manifest().executed == 24
        assert seen == [(n, "run") for n in range(1, 25)]
        assert max(pool_tasks) > 1
        described = sorted(cfg.describe() for cfg in self.CONFIGS)
        submits = [s for s in session.spans if s.name == "submit"]
        executes = [s for s in session.spans if s.name == "execute"]
        assert sorted(s.attrs["config"] for s in submits) == described
        assert sorted(s.attrs["config"] for s in executes) == described
        assert all(s.status == "ok" for s in executes)
        assert {s.parent_id for s in executes} == {s.span_id for s in submits}
        assert os.getpid() not in {s.attrs["pid"] for s in executes}
        assert runner.result_store().counters.puts == 24
