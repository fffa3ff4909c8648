"""Tests for the transaction forensics subsystem: the lifecycle ledger,
causal abort attribution, wasted-work accounting, the ``repro inspect``/
``repro compare`` surfaces, and the ``htm-be`` system alias."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.analysis.forensics import (
    FORENSICS_SCHEMA,
    collect_forensics,
    compare_reports,
    render_compare,
    render_document,
    render_html,
)
from repro.experiments.runner import RunConfig, last_manifest, run_many
from repro.obs import (
    CAUSE_KINDS,
    TxLedger,
    WastedWork,
    attribute_aborts,
)
from repro.obs.events import (
    Abort,
    Commit,
    SpecForward,
    TxBegin,
    ValidationMismatch,
)
from repro.sim.config import table2_config
from repro.sim.simulator import Simulator
from repro.systems import (
    UnknownSystemError,
    get_spec,
    register_alias,
    registered_systems,
    system_aliases,
)
from repro.systems import paper
from repro.workloads.base import make_workload

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import check_doc  # noqa: E402

FAST = dict(threads=4, seed=2, scale=0.1)


def _sim(system=paper.CHATS, workload="counter", **kwargs):
    params = dict(FAST, **kwargs)
    wl = make_workload(workload, **params)
    return Simulator(wl, htm=table2_config(system))


def _ledger_run(system=paper.CHATS, workload="counter", **kwargs):
    sim = _sim(system, workload, **kwargs)
    ledger = TxLedger(sim)
    with ledger:
        result = sim.run()
    return ledger, result


# ----------------------------------------------------------------------
class TestTxLedger:
    def test_attempts_match_aggregate_stats(self):
        ledger, result = _ledger_run()
        stats = result.stats
        assert len(ledger.attempts) == stats.tx_attempts
        assert len(ledger.commits) == stats.tx_commits
        assert len(ledger.aborts) == stats.total_aborts
        assert len(ledger.edges) == stats.spec_forwards

    def test_attempt_records_are_ordered_and_indexed(self):
        ledger, _ = _ledger_run()
        for attempt in ledger.attempts:
            assert attempt.begin <= attempt.end
            assert ledger.attempt(attempt.core, attempt.epoch) is attempt
        for core in ledger.cores():
            epochs = [a.epoch for a in ledger.attempts_of(core)]
            assert epochs == sorted(epochs)  # epochs grow per core

    def test_aborted_attempts_carry_reason(self):
        ledger, _ = _ledger_run()
        assert ledger.aborts  # counter under CHATS always conflicts
        for attempt in ledger.aborts:
            assert attempt.outcome == "aborted"
            assert attempt.reason
        for attempt in ledger.commits:
            assert attempt.reason is None

    def test_fallback_spans_bracket_lock_commits(self):
        # counter/baseline at 8 threads escalates to the fallback lock.
        ledger, result = _ledger_run(
            paper.BASELINE, threads=8, scale=0.4, seed=1
        )
        assert result.stats.tx_fallback_commits > 0
        assert len(ledger.fallbacks) == result.stats.tx_fallback_commits
        for span in ledger.fallbacks:
            assert span.end > span.begin

    def test_wasted_work_matches_simulator_gauges(self):
        """The ledger's per-core buckets must reproduce the simulator's
        transient cycle gauges exactly — two independent accountings of
        the same spans."""
        for system in (paper.CHATS, paper.BASELINE):
            ledger, result = _ledger_run(system, threads=8, scale=0.4, seed=1)
            totals = WastedWork.from_ledger(ledger, result.cycles).totals()
            assert totals["committed"] == result.stats.committed_cycles
            assert (
                totals["aborted_speculative"] == result.stats.aborted_cycles
            )
            assert totals["fallback"] == result.stats.fallback_cycles

    def test_stalled_bucket_completes_each_core(self):
        ledger, result = _ledger_run()
        wasted = WastedWork.from_ledger(ledger, result.cycles)
        for buckets in wasted.per_core.values():
            assert sum(buckets.values()) >= result.cycles
            assert all(v >= 0 for v in buckets.values())

    def test_to_dict_is_json_serializable(self):
        ledger, _ = _ledger_run()
        payload = json.loads(json.dumps(ledger.to_dict()))
        assert len(payload["attempts"]) == len(ledger.attempts)
        assert len(payload["forwards"]) == len(ledger.edges)


# ----------------------------------------------------------------------
class TestLedgerObserverEffect:
    @pytest.mark.parametrize(
        "system",
        (paper.CHATS, paper.BASELINE, paper.PCHATS),
        ids=str,
    )
    def test_ledger_subscribed_run_is_bit_identical(self, system):
        """Attaching a TxLedger must not perturb the simulation."""
        bare = _sim(system).run()
        ledger, observed = _ledger_run(system)
        assert observed.cycles == bare.cycles
        assert observed.events == bare.events
        assert observed.stats.to_dict() == bare.stats.to_dict()
        assert observed.network == bare.network
        assert ledger.attempts  # and the ledger actually saw the run


# ----------------------------------------------------------------------
def _synthetic_cascade() -> TxLedger:
    """Hand-built stream: producer T0 forwards to T1, T1 to T2; T0 aborts
    on a conflict with T3, and the stale value cascades down the chain."""
    ledger = TxLedger()
    ledger(TxBegin(cycle=0, core=0, epoch=1))
    ledger(TxBegin(cycle=1, core=1, epoch=1))
    ledger(TxBegin(cycle=2, core=2, epoch=1))
    ledger(TxBegin(cycle=3, core=3, epoch=1))
    ledger(SpecForward(cycle=10, producer=0, consumer=1, block=8, pic=0))
    ledger(SpecForward(cycle=12, producer=1, consumer=2, block=9, pic=1))
    ledger(Abort(cycle=20, core=0, epoch=1, reason="conflict", src=3, block=8))
    ledger(ValidationMismatch(cycle=30, core=1, block=8, epoch=1))
    ledger(
        Abort(cycle=30, core=1, epoch=1, reason="validation", src=0, block=8)
    )
    ledger(
        Abort(cycle=40, core=2, epoch=1, reason="validation", src=1, block=9)
    )
    ledger(Commit(cycle=50, core=3, epoch=1))
    return ledger


class TestAttribution:
    def test_synthetic_cascade_links_producers(self):
        report = attribute_aborts(_synthetic_cascade())
        by_core = {r.attempt.core: r for r in report.records}
        assert by_core[0].kind == "conflict"
        assert by_core[0].source_core == 3
        # T1 and T2 died validating values whose producers had aborted.
        assert by_core[1].kind == "producer-abort"
        assert by_core[1].source_attempt == (0, 1)
        assert by_core[2].kind == "producer-abort"
        assert by_core[2].source_attempt == (1, 1)
        # One cascade tree rooted at T0's abort, depth 2, all three in it.
        assert len(report.cascades) == 1
        cascade = report.cascades[0]
        assert cascade.root == (0, 1)
        assert cascade.size == 3
        assert cascade.depth == 2
        # Chain stats come from the same edges.
        assert report.chain_stats()["max_depth"] == 2

    def test_breakdown_covers_every_record(self):
        report = attribute_aborts(_synthetic_cascade())
        assert sum(report.breakdown().values()) == report.total == 3
        assert set(report.breakdown()) == set(CAUSE_KINDS)

    @pytest.mark.parametrize(
        "system",
        (paper.CHATS, paper.BASELINE, paper.PCHATS),
        ids=str,
    )
    def test_contended_counter_attribution_floor(self, system):
        """Acceptance: ≥95% of aborts on the contended counter workload
        resolve to a concrete cause-with-source."""
        ledger, _ = _ledger_run(system, threads=16, scale=0.4, seed=1)
        report = attribute_aborts(ledger)
        assert report.total > 0
        assert report.attributed_fraction >= 0.95
        for rec in report.records:
            assert rec.kind in CAUSE_KINDS


# ----------------------------------------------------------------------
class TestForensicReport:
    def test_schema_and_render(self):
        _, report = collect_forensics(
            RunConfig.make("counter", "chats", **FAST)
        )
        text = json.dumps(report.to_dict())
        assert check_doc.check_text("forensics", text) == []
        doc = json.loads(text)
        assert doc["schema"] == FORENSICS_SCHEMA
        assert doc["aborts"] == report.aborts
        assert doc["gauge_mismatches"] == {}
        text = report.render()
        assert "abort attribution" in text
        assert "wasted work" in text
        html = render_html(report.to_dict())
        assert html.startswith("<!doctype html>")
        # A stored document (sorted keys, string cores) renders alike.
        assert render_html(json.loads(json.dumps(doc, sort_keys=True))) == html

    def test_stored_document_renders_like_the_live_one(self):
        """A document read back from the store has sorted string keys;
        chain depths still render in numeric order."""
        _, report = collect_forensics(
            RunConfig.make("counter", "chats", **FAST)
        )
        doc = report.to_dict()
        doc["attribution"]["chains"].update(
            chains=2, max_depth=10, depth_histogram={"2": 1, "10": 1}
        )
        stored = json.loads(json.dumps(doc, sort_keys=True))
        assert "depth 2: 1  depth 10: 1" in render_document(doc)
        assert render_document(stored) == render_document(doc)
        assert render_html(stored) == render_html(doc)
        digest = report.digest()
        assert 0.0 <= digest["attributed_fraction"] <= 1.0

    def test_compare_reproduces_paper_story(self):
        """Acceptance: chats vs htm-be on the forwardable contended
        workload shows fewer conflict aborts, nonzero validation aborts,
        and lower wasted-speculative cycles for CHATS."""
        chats, base = (
            collect_forensics(
                RunConfig.make("cadd", system, threads=8, seed=1, scale=0.4)
            )[1]
            for system in ("chats", "htm-be")
        )
        assert base.system == "baseline"  # alias resolved
        chats_b = chats.attribution.breakdown()
        base_b = base.attribution.breakdown()
        assert chats_b["conflict"] < base_b["conflict"]
        assert chats_b["validation-mismatch"] > 0
        chats_spec = chats.wasted.totals()["aborted_speculative"]
        base_spec = base.wasted.totals()["aborted_speculative"]
        assert chats_spec < base_spec
        diff = compare_reports(chats, base)
        assert diff["cycles_delta"] == base.cycles - chats.cycles
        assert check_doc.check_text("compare", json.dumps(diff)) == []
        text = render_compare(chats, base)
        assert "abort causes" in text

    def test_aborts_before_tx_begin_are_attributed(self):
        """An abort landing while the attempt's lock-subscription read is
        still in flight (before ``TxBegin``) is counted in the stats, so
        the ledger must record it too: as a zero-length attempt."""
        _, report = collect_forensics(
            RunConfig.make("cadd", "htm-be", threads=8, seed=1, scale=0.4)
        )
        assert report.attribution.total == report.aborts
        early = [
            (rec.attempt.core, rec.attempt.epoch, rec.attempt.end,
             rec.kind, rec.source_core)
            for rec in report.attribution.records
            if rec.attempt.begin == rec.attempt.end
        ]
        assert early == [
            (1, 21, 11_772, "fallback-lock", 2),
            (4, 28, 14_750, "fallback-lock", 7),
        ]
        assert report.gauge_mismatches == {}
        text = json.dumps(report.to_dict())
        assert check_doc.check_text(
            "forensics", text, min_attributed=0.95
        ) == []

    def test_manifest_records_forensic_digests(self):
        cfg = RunConfig.make("counter", "chats", **FAST)
        run_many([cfg], use_cache=False, workers=1, forensics=True)
        manifest = last_manifest()
        entry = manifest.entry_for(cfg)
        assert entry is not None and entry.source == "run"
        assert entry.forensics is not None
        assert entry.forensics["schema"] == FORENSICS_SCHEMA
        assert entry.forensics["aborts"] >= 0

    def test_forensic_run_result_matches_plain_run(self):
        """A forensics batch must cache the same result a plain batch
        would have produced (the ledger is observer-effect free end to
        end through the runner)."""
        cfg = RunConfig.make("counter", "chats", **FAST)
        plain = run_many([cfg], use_cache=False, workers=1)[0]
        forensic = run_many(
            [cfg], use_cache=False, workers=1, forensics=True
        )[0]
        assert forensic.to_dict() == plain.to_dict()


# ----------------------------------------------------------------------
class TestSystemAliases:
    def test_htm_be_resolves_to_baseline(self):
        assert get_spec("htm-be") is get_spec("baseline")
        assert system_aliases()["htm-be"] == "baseline"

    def test_aliases_do_not_appear_in_registry_order(self):
        names = [spec.name for spec in registered_systems()]
        assert "htm-be" not in names
        assert "baseline" in names

    def test_alias_reregistration_is_idempotent(self):
        register_alias("htm-be", "baseline")  # same target: no-op

    def test_alias_cannot_shadow_or_retarget(self):
        with pytest.raises(ValueError):
            register_alias("chats", "baseline")
        with pytest.raises(ValueError):
            register_alias("htm-be", "chats")
        with pytest.raises(UnknownSystemError):
            register_alias("nonesuch-alias", "nonesuch-target")
