"""Tests for the fleet-telemetry layer (``repro.obs.telemetry``):
metrics registry semantics, span-tree structure and exports, the
``run_many`` integration (resource accounting, manifest enrichment,
retry-span nesting), and observer-effect freedom with telemetry off.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

import pytest

from repro import store as store_pkg
from repro.experiments import runner
from repro.experiments.runner import (
    RunConfig,
    clear_cache,
    counters,
    last_manifest,
    run_many,
)
from repro.obs import telemetry as fleet
from repro.obs.telemetry import (
    LiveDashboard,
    MetricError,
    MetricsRegistry,
    TelemetrySession,
)
from repro.sim.config import table2_config
from repro.sim.simulator import Simulator
from repro.systems import paper
from repro.workloads.base import make_workload, register
from repro.workloads.synth import CounterWorkload

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import check_doc  # noqa: E402

FAST = dict(threads=2, scale=0.1)

#: Marker-dir env var for this file's injectable failure (distinct from
#: ``test_runner_retry``'s so the suites never arm each other).
FLAKY_DIR_ENV = "REPRO_TEST_TELE_FLAKY_DIR"


@register
class TeleFlakyCounter(CounterWorkload):
    """Counter workload whose first construction per seed fails."""

    name = "tele-flaky-counter"

    def __init__(self, *, threads: int = 16, seed: int = 1, scale: float = 1.0):
        marker_dir = os.environ.get(FLAKY_DIR_ENV)
        if marker_dir:
            marker = Path(marker_dir) / f"attempt-{seed}"
            if not marker.exists():
                marker.touch()
                raise RuntimeError("injected first-attempt failure")
        super().__init__(threads=threads, seed=seed, scale=scale)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setattr(runner, "_cache_dir_override", None)
    monkeypatch.setattr(runner, "_disk_cache_override", None)
    monkeypatch.setattr(runner, "_default_progress", None)
    store_pkg.drop_cached_instances()
    clear_cache()
    counters().reset()
    yield
    fleet.uninstall()
    store_pkg.drop_cached_instances()
    clear_cache()
    counters().reset()


@pytest.fixture
def flaky_markers(tmp_path, monkeypatch):
    marker_dir = tmp_path / "tele-flaky"
    marker_dir.mkdir()
    monkeypatch.setenv(FLAKY_DIR_ENV, str(marker_dir))
    yield marker_dir


def _cfg(workload="counter", system="htm-be", **kwargs) -> RunConfig:
    return RunConfig.make(workload, system, **dict(FAST, **kwargs))


def _spans(session, name):
    return [s for s in session.spans if s.name == name]


# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_counts_and_rejects_negatives(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", "jobs")
        c.inc()
        c.inc(4)
        assert c.value() == 5
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_labels_partition_series(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", labels=("layer",))
        c.inc(layer="memory")
        c.inc(2, layer="disk")
        assert c.value(layer="memory") == 1
        assert c.value(layer="disk") == 2
        with pytest.raises(MetricError):
            c.inc(tier="disk")  # wrong label name

    def test_get_or_create_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        assert len(reg) == 1

    def test_conflicting_reregistration_raises(self):
        reg = MetricsRegistry()
        reg.counter("x", labels=("k",))
        with pytest.raises(MetricError):
            reg.gauge("x", labels=("k",))
        with pytest.raises(MetricError):
            reg.counter("x", labels=("other",))

    def test_gauge_set_and_set_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("rss_kb")
        g.set(100)
        g.set_max(50)
        assert g.value() == 100
        g.set_max(200)
        assert g.value() == 200

    def test_histogram_buckets_sum_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("wall", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count() == 5
        assert h.sum() == pytest.approx(56.05)
        ((_, series),) = list(h._series())
        # Cumulative counts per bound (0.1, 1.0, 10.0, +Inf).
        assert series["buckets"] == [1, 3, 4, 5]

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("runs_total", "runs by source", labels=("source",)).inc(
            3, source="cached"
        )
        reg.histogram("wall_seconds", "wall", buckets=(1.0,)).observe(0.5)
        text = reg.to_prometheus()
        assert "# HELP runs_total runs by source" in text
        assert "# TYPE runs_total counter" in text
        assert 'runs_total{source="cached"} 3' in text
        assert 'wall_seconds_bucket{le="1"} 1' in text
        assert 'wall_seconds_bucket{le="+Inf"} 1' in text
        assert "wall_seconds_sum 0.5" in text
        assert "wall_seconds_count 1" in text

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.5)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["schema"] == fleet.METRICS_SCHEMA
        assert snap["metrics"]["g"]["kind"] == "gauge"

    def test_write_snapshot_picks_format_by_suffix(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        reg.write_snapshot(tmp_path / "m.prom")
        reg.write_snapshot(tmp_path / "m.json")
        assert "# TYPE c_total counter" in (tmp_path / "m.prom").read_text()
        assert json.loads((tmp_path / "m.json").read_text())["metrics"]


# ----------------------------------------------------------------------
class TestTelemetrySession:
    def test_span_tree_and_context_manager(self):
        session = TelemetrySession()
        with session.span("run_many") as root:
            with session.span("submit", parent=root):
                pass
        with pytest.raises(ValueError):
            with session.span("submit", parent=root):
                raise ValueError("boom")
        ok, nested, failed = session.spans
        assert ok.parent_id is None and ok.status == "ok"
        assert nested.parent_id == ok.span_id
        assert failed.status == "error"

    def test_lanes_are_stable_per_pid(self):
        session = TelemetrySession()
        assert session.lane_for(111) == 1
        assert session.lane_for(222) == 2
        assert session.lane_for(111) == 1
        assert session.lanes == {111: 1, 222: 2}

    def test_jsonl_header_and_span_lines(self):
        session = TelemetrySession()
        root = session.begin("run_many", configs=1)
        session.finish(root)
        buf = io.StringIO()
        assert session.write_jsonl(buf) == 1
        header, line = [json.loads(x) for x in buf.getvalue().splitlines()]
        assert header["kind"] == "session"
        assert header["schema"] == fleet.SCHEMA
        assert line["kind"] == "span"
        assert line["name"] == "run_many"
        assert line["attrs"] == {"configs": 1}

    def test_chrome_export_tracks_and_phases(self):
        session = TelemetrySession()
        root = session.begin("run_many")
        submit = session.begin("submit", parent=root)
        t = time.time()
        session.add("execute", t, t + 0.01, parent=submit,
                    lane=session.lane_for(4242), pid=4242)
        session.finish(submit)
        session.finish(root)
        payload = session.to_chrome()
        events = payload["traceEvents"]
        names = {
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        }
        assert "scheduler" in names
        assert "worker 4242" in names
        phases = {e["name"]: e["ph"] for e in events if e["ph"] != "M"}
        # Overlappable scheduler spans are async pairs, the rest slices.
        assert phases["run_many"] == "X"
        assert phases["execute"] == "X"
        assert {e["ph"] for e in events if e["name"] == "submit"} == {"b", "e"}

    def test_exports_satisfy_the_ci_checker(self, tmp_path):
        session = TelemetrySession()
        root = session.begin("run_many")
        submit = session.begin("submit", parent=root)
        t = time.time()
        session.add("execute", t, t + 0.005, parent=submit,
                    lane=session.lane_for(99), pid=99)
        session.finish(submit)
        session.finish(root)
        jsonl = tmp_path / "fleet.jsonl"
        chrome = tmp_path / "fleet.json"
        session.write_jsonl(jsonl)
        session.write_chrome(chrome)
        assert check_doc.check_file("spans", jsonl) == []
        assert check_doc.check_file("chrome", chrome) == []
        assert check_doc.main(["spans", str(jsonl)]) == 0
        assert check_doc.main(["chrome", str(chrome)]) == 0

    def test_checker_flags_broken_logs(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps({"kind": "session", "schema": "nope"}) + "\n"
            + json.dumps({"kind": "span", "id": 1, "parent": 7,
                          "name": "mystery", "start_unix": 2.0,
                          "end_unix": 1.0, "status": "meh"}) + "\n"
        )
        problems = check_doc.check_file("spans", bad)
        joined = "\n".join(problems)
        assert "schema" in joined
        assert "unknown span name" in joined
        assert "parent 7" in joined
        assert "ends before it starts" in joined
        assert check_doc.main(["spans", str(bad)]) == 1

    def test_install_is_exclusive(self):
        with fleet.session_scope() as session:
            assert fleet.current_session() is session
            with pytest.raises(RuntimeError):
                fleet.install(TelemetrySession())
        assert fleet.current_session() is None


# ----------------------------------------------------------------------
class TestRunManyIntegration:
    def test_span_tree_resources_and_manifest(self, tmp_path):
        cfgs = [_cfg(system="htm-be"), _cfg(system="chats")]
        with fleet.session_scope() as session:
            run_many(cfgs, workers=1)
        (root,) = _spans(session, "run_many")
        assert root.status == "ok"
        assert root.attrs["unique"] == 2
        submits = _spans(session, "submit")
        probes = _spans(session, "cache-probe")
        executes = _spans(session, "execute")
        stores = _spans(session, "serialize")
        assert len(submits) == len(executes) == len(stores) == 2
        assert len(probes) == 2
        assert all(s.parent_id == root.span_id for s in submits + probes)
        assert {p.attrs["outcome"] for p in probes} == {"miss"}
        submit_ids = {s.span_id for s in submits}
        for ex in executes:
            assert ex.parent_id in submit_ids
            assert ex.lane == 1  # serial path: everything on one lane
            assert ex.attrs["pid"] == os.getpid()
            assert ex.attrs["events"] > 0
            assert ex.attrs["wall_seconds"] >= 0
            assert ex.attrs["events_per_sec"] > 0

        manifest = last_manifest()
        assert manifest.events_simulated > 0
        assert manifest.cpu_seconds >= 0
        entry = manifest.entry_for(cfgs[0])
        assert entry.resources is not None
        assert entry.resources["pid"] == os.getpid()
        # Round-trip: resources survive to_dict (the persisted form).
        dumped = manifest.to_dict()
        assert all("resources" in e for e in dumped["entries"])
        rt = dumped["entries"][0]["resources"]
        assert rt["events"] > 0 and "peak_rss_kb" in rt

    def test_manifest_persisted_beside_cache(self, tmp_path):
        with fleet.session_scope() as session:
            run_many([_cfg()], workers=1)
        store = runner.result_store()
        keys = store.keys("manifest/")
        assert len(keys) == 1
        # Content-hash naming: the key carries the session's run id plus
        # a digest of the payload, not a racy per-process sequence.
        assert keys[0].startswith(f"manifest/MANIFEST_{session.run_id}_")
        payload = store.get_json(keys[0])
        assert payload["schema"] == fleet.MANIFEST_SCHEMA
        assert payload["seq"] == 1
        assert payload["entries"][0]["resources"]["events"] > 0

    def test_manifest_names_cannot_collide(self, tmp_path):
        """Two batches in one session — and identical batches in racing
        sessions — never overwrite each other's manifest entry."""
        with fleet.session_scope():
            run_many([_cfg()], workers=1)
            run_many([_cfg(system="chats")], workers=1)
        store = runner.result_store()
        assert len(store.keys("manifest/")) == 2

    def test_cache_hit_probes_and_metrics(self):
        cfg = _cfg()
        run_many([cfg], workers=1)  # populate (telemetry off)
        with fleet.session_scope() as session:
            run_many([cfg], workers=1)
        (probe,) = _spans(session, "cache-probe")
        assert probe.attrs["outcome"] == "hit"
        assert probe.attrs["layer"] in ("memory", "disk")
        hits = session.metrics.counter(
            "repro_cache_probes_total", labels=("layer", "outcome")
        )
        assert hits.value(layer=probe.attrs["layer"], outcome="hit") == 1
        assert not _spans(session, "submit")  # nothing executed

    def test_retry_span_nests_under_the_original_submit(self, flaky_markers):
        cfg = _cfg(workload="tele-flaky-counter")
        with fleet.session_scope() as session:
            run_many([cfg], workers=1, use_cache=False)
        (submit,) = _spans(session, "submit")
        (retry,) = _spans(session, "retry")
        assert retry.parent_id == submit.span_id
        assert retry.status == "ok" and submit.status == "ok"
        failed, succeeded = _spans(session, "execute")
        assert failed.status == "error"
        assert failed.parent_id == submit.span_id
        assert succeeded.status == "ok"
        assert succeeded.parent_id == retry.span_id
        assert session.metrics.counter("repro_retries_total").value() == 1

    def test_exports_from_a_real_sweep_pass_the_checker(self, tmp_path):
        with fleet.session_scope() as session:
            run_many([_cfg(), _cfg(system="chats")], workers=1)
        jsonl = tmp_path / "sweep.jsonl"
        chrome = tmp_path / "sweep.json"
        session.write_jsonl(jsonl)
        session.write_chrome(chrome)
        assert check_doc.check_file("spans", jsonl) == []
        assert check_doc.check_file("chrome", chrome) == []


# ----------------------------------------------------------------------
class TestObserverEffect:
    @staticmethod
    def _digest(result) -> str:
        payload = json.dumps(result.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def test_results_byte_identical_with_and_without_telemetry(self):
        cfg = _cfg(system="chats")
        bare = run_many([cfg], workers=1, use_cache=False)[0]
        with fleet.session_scope():
            observed = run_many([cfg], workers=1, use_cache=False)[0]
        assert self._digest(bare) == self._digest(observed)

    def test_engine_probe_stays_inert_under_telemetry(self):
        """Fleet telemetry never reaches inside a simulation: the
        per-simulator probe gains no subscribers, so the engine hot loop
        allocates nothing for telemetry (emission is gated on ``if
        probe:``, which stays False)."""
        with fleet.session_scope():
            wl = make_workload("counter", threads=2, seed=1, scale=0.1)
            sim = Simulator(wl, htm=table2_config(paper.CHATS))
            assert not sim.probe.active
            sim.run()
            assert not sim.probe.active
            assert sim.probe._subscribers == ()

    def test_disabled_telemetry_allocates_nothing_per_run(self):
        """With no session installed the runner gets the shared no-op
        singleton — no per-batch (let alone per-event) allocation."""
        assert fleet.current_session() is None
        assert fleet.for_run_many() is fleet.NULL_BATCH
        assert fleet.for_run_many() is fleet.for_run_many()
        assert not hasattr(fleet.NULL_BATCH, "__dict__")


# ----------------------------------------------------------------------
class TestLiveDashboard:
    def test_renders_progress_cache_rate_and_lanes(self):
        session = TelemetrySession()
        buf = io.StringIO()  # not a TTY: only the final frame is drawn
        dash = LiveDashboard(session, stream=buf)
        root = session.begin("run_many")
        submit = session.begin("submit", parent=root)
        t = time.time()
        session.add("execute", t, t + 0.02, parent=submit,
                    lane=session.lane_for(77), pid=77,
                    config="counter/chats", events=1234)
        session.finish(submit)
        dash.progress(1, 4, None, "run")
        dash.progress(2, 4, None, "cached")
        session.finish(root)
        frame = dash.render()
        assert "2/4" in frame
        assert "cache 1 hit" in frame
        assert "lane 1 [pid 77]" in frame
        assert "counter/chats" in frame
        assert buf.getvalue() == ""  # nothing drawn yet off-TTY
        dash.close()
        assert "2/4" in buf.getvalue()  # final frame always written

    def test_detaches_from_the_session_on_close(self):
        session = TelemetrySession()
        dash = LiveDashboard(session, stream=io.StringIO())
        assert session._listeners
        dash.close()
        assert not session._listeners
