"""Tests for the instrumentation bus (``repro.obs``): probe semantics,
observer-effect freedom, interval metrics, trace exporters, chain
reconstruction, and the runner's manifest/metrics plumbing."""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.runner import RunConfig, clear_cache, run_many
from repro.htm.stats import HTMStats
from repro.obs import (
    ChromeTraceExporter,
    Commit,
    IntervalMetrics,
    JsonlTraceWriter,
    Probe,
    Tracer,
    TxLedger,
    link_chains,
    render_chains,
)
from repro.obs.trace_export import DIRECTORY_TRACK, TRACE_PID
from repro.sim.config import table2_config
from repro.sim.simulator import Simulator
from repro.systems import paper
from repro.workloads.base import make_workload

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import check_doc  # noqa: E402

FAST = dict(threads=4, seed=2, scale=0.1)


def _sim(system=paper.CHATS, **kwargs):
    params = dict(FAST, **kwargs)
    wl = make_workload("counter", **params)
    return Simulator(wl, htm=table2_config(system))


# ----------------------------------------------------------------------
class TestProbe:
    def test_inert_without_subscribers(self):
        probe = Probe()
        assert probe._subscribers == ()

    def test_subscribe_unsubscribe(self):
        probe = Probe()
        seen = []
        probe.subscribe(seen.append)
        assert probe._subscribers == (seen.append,)
        probe.emit(Commit(cycle=1, core=0, epoch=1))
        probe.unsubscribe(seen.append)
        probe.emit(Commit(cycle=2, core=0, epoch=2))
        assert [e.cycle for e in seen] == [1]
        # Unsubscribing twice (or a stranger) is a no-op.
        probe.unsubscribe(seen.append)

    def test_duplicate_subscription_delivers_once(self):
        probe = Probe()
        seen = []
        probe.subscribe(seen.append)
        probe.subscribe(seen.append)
        probe.emit(Commit(cycle=1, core=0, epoch=1))
        assert len(seen) == 1

    def test_emit_iterates_a_copy_on_write_snapshot(self):
        """Mutating the subscriber list from inside a delivery must not
        affect the in-flight emit: a subscriber added mid-emit sees only
        later events, one removed mid-emit still sees the current one."""
        probe = Probe()
        seen_late = []
        seen_victim = []

        def victim(ev):
            seen_victim.append(ev.cycle)

        def meddler(ev):
            probe.subscribe(seen_late.append)
            probe.unsubscribe(victim)

        probe.subscribe(meddler)
        probe.subscribe(victim)
        probe.emit(Commit(cycle=1, core=0, epoch=1))
        assert seen_late == []  # not in the snapshot emit iterated
        assert seen_victim == [1]  # removal did not mutate the snapshot
        probe.emit(Commit(cycle=2, core=0, epoch=2))
        assert [e.cycle for e in seen_late] == [2]
        assert seen_victim == [1]

    def test_emit_does_not_allocate_a_snapshot_per_event(self):
        """The subscriber tuple is only rebuilt on (un)subscribe; emit
        iterates the stored tuple itself (the old per-emit ``tuple()``
        copy was measurable on traced runs)."""
        probe = Probe()
        probe.subscribe(lambda ev: None)
        before = probe._subscribers
        probe.emit(Commit(cycle=1, core=0, epoch=1))
        assert probe._subscribers is before


# ----------------------------------------------------------------------
class TestObserverEffect:
    @pytest.mark.parametrize(
        "system", (paper.CHATS, paper.POWER), ids=str
    )
    def test_traced_run_is_bit_identical_to_untraced(self, system):
        """Attaching every subscriber at once must not perturb the
        simulation: same cycles, same stats, bit for bit."""
        bare = _sim(system).run()

        sim = _sim(system)
        tracer = Tracer(sim).attach()
        writer = JsonlTraceWriter(io.StringIO())
        exporter = ChromeTraceExporter()
        ledger = TxLedger(sim).attach()
        sim.probe.subscribe(writer)
        sim.probe.subscribe(exporter)
        traced = sim.run(metrics_window=1_000)
        tracer.detach()
        ledger.detach()

        assert traced.cycles == bare.cycles
        assert traced.events == bare.events
        assert traced.stats.to_dict() == bare.stats.to_dict()
        assert traced.network == bare.network
        assert writer.events_written > 0

    def test_interleaved_simulators_do_not_cross_talk(self):
        """Two traced simulators attached at the same time each see only
        their own events (the old class-level monkey-patching broke
        this)."""
        sim_a = _sim(threads=2)
        sim_b = _sim(threads=4)
        tracer_a = Tracer(sim_a).attach()
        tracer_b = Tracer(sim_b).attach()

        result_a = sim_a.run()
        events_a_before = len(tracer_a.events)
        result_b = sim_b.run()

        # B's run added nothing to A's (still attached) tracer.
        assert len(tracer_a.events) == events_a_before
        commits_a = tracer_a.of_kind("commit")
        commits_b = tracer_b.of_kind("commit")
        assert len(commits_a) == result_a.total_commits
        assert len(commits_b) == result_b.total_commits
        assert len(commits_a) != len(commits_b)  # distinct workloads
        tracer_a.detach()
        tracer_b.detach()


# ----------------------------------------------------------------------
class TestIntervalMetrics:
    def test_bins_sum_to_aggregates(self):
        sim = _sim()
        result = sim.run(metrics_window=500)
        collector = IntervalMetrics.from_dict(result.intervals)
        totals = collector.totals()
        stats = result.stats
        assert totals["commits"] == stats.tx_commits + stats.tx_fallback_commits
        assert totals["aborts"] == stats.total_aborts
        assert totals["forwards"] == stats.spec_forwards
        assert totals["fallback_acquires"] == result.lock_acquisitions
        assert totals["power_elevations"] == result.power_grants

    def test_round_trip_and_dense_bins(self):
        sim = _sim()
        result = sim.run(metrics_window=250)
        data = result.intervals
        assert data["window"] == 250
        rebuilt = IntervalMetrics.from_dict(data)
        assert rebuilt.to_dict() == data
        starts = [b["start"] for b in data["bins"]]
        assert starts == sorted(starts)
        # Dense axis: consecutive bins are exactly one window apart.
        assert all(b - a == 250 for a, b in zip(starts, starts[1:]))

    def test_rejects_degenerate_window(self):
        with pytest.raises(ValueError):
            IntervalMetrics(window=0)

    def test_timeline_table_renders(self):
        from repro.analysis.tables import format_timeline

        result = _sim().run(metrics_window=500)
        text = format_timeline("timeline", result.intervals)
        lines = text.splitlines()
        assert lines[0] == "timeline"
        assert len(lines) == 4 + len(result.intervals["bins"])

    def test_intervals_survive_result_round_trip(self):
        from repro.sim.results import SimulationResult

        result = _sim().run(metrics_window=500)
        clone = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone.intervals == result.intervals

    def test_window_larger_than_run_yields_one_bin(self):
        """A window wider than the whole run collapses to a single bin
        holding every event."""
        metrics = IntervalMetrics(window=1_000_000)
        for cycle in (0, 7, 4_242, 99_999):
            metrics(Commit(cycle=cycle, core=0, epoch=1))
        bins = metrics.bins()
        assert len(bins) == 1
        assert bins[0]["start"] == 0
        assert bins[0]["commits"] == 4
        assert metrics.totals()["commits"] == 4

    def test_final_partial_window_keeps_its_events(self):
        """Events past the last full window land in a final (short) bin;
        nothing is truncated at the run's tail."""
        metrics = IntervalMetrics(window=100)
        metrics(Commit(cycle=50, core=0, epoch=1))
        metrics(Commit(cycle=205, core=0, epoch=2))  # 5 cycles into bin 2
        bins = metrics.bins()
        assert [b["start"] for b in bins] == [0, 100, 200]
        assert [b["commits"] for b in bins] == [1, 0, 1]
        assert metrics.totals()["commits"] == 2

    def test_zero_event_interior_window_is_materialized_empty(self):
        """A silent window between active ones still appears in bins()
        (dense axis), with every counter zero and no abort keys."""
        metrics = IntervalMetrics(window=100)
        metrics(Commit(cycle=10, core=0, epoch=1))
        metrics(Commit(cycle=310, core=0, epoch=2))
        bins = metrics.bins()
        assert [b["start"] for b in bins] == [0, 100, 200, 300]
        for empty in bins[1:3]:
            assert empty["commits"] == 0
            assert empty["aborts"] == {}
            assert empty["forwards"] == 0
            assert empty["vsb_peak"] == 0
            assert empty["fallback_acquires"] == 0
            assert empty["power_elevations"] == 0
        # Round trip preserves the dense axis, including empty bins.
        rebuilt = IntervalMetrics.from_dict(
            {"window": 100, "bins": bins}
        )
        assert rebuilt.to_dict() == {"window": 100, "bins": bins}


# ----------------------------------------------------------------------
class TestJsonlWriter:
    def test_lines_are_valid_typed_events(self):
        sim = _sim()
        buf = io.StringIO()
        with JsonlTraceWriter(buf) as writer:
            sim.probe.subscribe(writer)
            sim.run()
            sim.probe.unsubscribe(writer)
        text = buf.getvalue()
        assert len(text.splitlines()) == writer.events_written > 0
        assert check_doc.check_text("events", text) == []


# ----------------------------------------------------------------------
class TestChromeExport:
    def _trace(self):
        sim = _sim()
        exporter = ChromeTraceExporter()
        sim.probe.subscribe(exporter)
        sim.run()
        buf = io.StringIO()
        exporter.write(buf)
        return buf.getvalue()

    def test_valid_json_with_monotonic_tracks(self):
        text = self._trace()
        assert check_doc.check_text("chrome", text) == []
        events = [
            ev for ev in json.loads(text)["traceEvents"] if ev["ph"] != "M"
        ]
        assert events and all(ev["pid"] == TRACE_PID for ev in events)
        # directory traffic has a track
        assert any(ev["tid"] == DIRECTORY_TRACK for ev in events)

    def test_slices_balanced_per_track(self):
        text = self._trace()
        assert check_doc.check_text("chrome", text) == []
        assert any(ev["ph"] == "B" for ev in json.loads(text)["traceEvents"])

    def test_track_metadata_present(self):
        payload = json.loads(self._trace())
        names = {
            (ev["tid"], ev["args"]["name"])
            for ev in payload["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert (0, "core 0") in names
        assert (DIRECTORY_TRACK, "directory") in names


# ----------------------------------------------------------------------
class TestChains:
    def test_reconstructs_forwarding_chains(self):
        ledger = TxLedger()
        result = runner.simulate(
            RunConfig.make("counter", paper.CHATS, **FAST), ledger
        )
        assert result.stats.spec_forwards > 0
        assert len(ledger.edges) == result.stats.spec_forwards
        chains = link_chains(ledger.edges)
        assert chains
        assert sum(c.depth for c in chains) == len(ledger.edges)
        text = render_chains(ledger)
        assert "chain #1" in text and "-[blk=" in text
        assert "! consumer T" in text

    def test_render_without_forwards(self):
        assert "no speculative forwarding" in render_chains(TxLedger())


# ----------------------------------------------------------------------
class TestVsbGauges:
    def test_round_trip(self):
        a = HTMStats(vsb_high_water=3, vsb_stall_cycles=40)
        assert HTMStats.from_dict(a.to_dict()).vsb_high_water == 3
        assert HTMStats.from_dict(a.to_dict()).vsb_stall_cycles == 40

    def test_chats_run_records_vsb_activity(self):
        result = _sim().run()
        assert result.stats.spec_forwards > 0
        assert result.stats.vsb_high_water >= 1


# ----------------------------------------------------------------------
class TestRunnerObservability:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setattr(runner, "_cache_dir_override", None)
        monkeypatch.setattr(runner, "_disk_cache_override", None)
        monkeypatch.setattr(runner, "_default_progress", None)
        monkeypatch.setattr(runner, "_LAST_MANIFEST", None)
        clear_cache()
        yield
        clear_cache()

    def test_metrics_window_is_part_of_the_cache_key(self):
        plain = RunConfig.make("counter", paper.CHATS, **FAST)
        binned = RunConfig.make(
            "counter", paper.CHATS, metrics_window=1_000, **FAST
        )
        assert plain.key() != binned.key()
        assert binned.to_dict()["metrics_window"] == 1_000
        assert "metrics_window=1000" in binned.describe()

    def test_cached_results_keep_their_intervals(self):
        cfg = RunConfig.make(
            "counter", paper.CHATS, metrics_window=500, **FAST
        )
        first = run_many([cfg])[0]
        assert first.intervals is not None
        clear_cache()  # force the disk-cache path
        second = run_many([cfg])[0]
        assert runner.last_manifest().entry_for(cfg).source == "disk"
        assert second.intervals == first.intervals

    def test_manifest_records_runs_then_hits(self):
        configs = [
            RunConfig.make("counter", paper.BASELINE, **FAST),
            RunConfig.make("counter", paper.CHATS, **FAST),
        ]
        run_many(configs)
        manifest = runner.last_manifest()
        assert manifest.executed == 2 and manifest.cached == 0
        assert all(e.seconds >= 0 for e in manifest.entries)
        assert manifest.entry_for(configs[0]).source == "run"

        run_many(configs)
        manifest = runner.last_manifest()
        assert manifest.executed == 0 and manifest.cached == 2
        assert "2 cached / 0 run" in manifest.summary()
        assert [e.source for e in manifest.entries] == ["memory", "memory"]
