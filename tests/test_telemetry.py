"""Tests for the fleet-telemetry layer (``repro.obs.telemetry``):
span-tree structure and exports, the ``run_many`` integration (resource
accounting, retry-span nesting), and observer-effect freedom with
telemetry off.
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
    last_manifest,
    run_many,
)
from repro.obs import telemetry as fleet
from repro.obs.telemetry import TelemetrySession
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
    yield
    fleet.uninstall()
    store_pkg.drop_cached_instances()
    clear_cache()


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

        assert root.attrs["cached"] == 0 and root.attrs["run"] == 2

        manifest = last_manifest()
        assert manifest.events_simulated > 0
        entry = manifest.entry_for(cfgs[0])
        assert entry.resources is not None
        assert entry.resources["pid"] == os.getpid()
        assert entry.resources["events"] > 0
        assert "peak_rss_kb" in entry.resources

    def test_cache_hit_probes_and_metrics(self):
        cfg = _cfg()
        run_many([cfg], workers=1)  # populate (telemetry off)
        with fleet.session_scope() as session:
            run_many([cfg], workers=1)
        (probe,) = _spans(session, "cache-probe")
        assert probe.attrs["outcome"] == "hit"
        assert probe.attrs["layer"] in ("memory", "disk")
        (root,) = _spans(session, "run_many")
        assert root.attrs["cached"] == 1 and root.attrs["run"] == 0
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
        probe._subscribers:``, which stays False)."""
        with fleet.session_scope():
            wl = make_workload("counter", threads=2, seed=1, scale=0.1)
            sim = Simulator(wl, htm=table2_config(paper.CHATS))
            assert sim.probe._subscribers == ()
            sim.run()
            assert sim.probe._subscribers == ()

    def test_disabled_telemetry_allocates_nothing_per_run(self):
        """With no session installed the runner gets the shared no-op
        singleton — no per-batch (let alone per-event) allocation."""
        assert fleet.current_session() is None
        assert fleet.for_run_many() is fleet.NULL_BATCH
        assert fleet.for_run_many() is fleet.for_run_many()
        assert not hasattr(fleet.NULL_BATCH, "__dict__")
