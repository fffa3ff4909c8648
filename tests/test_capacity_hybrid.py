"""Tests for the capacity-limited and hybrid-fallback system families.

Two properties matter beyond plain correctness:

* the new knobs are *inert by default* — the paper six leave them None
  and keep their golden digests (pinned by test_golden_determinism);
* the new behaviours are visible and attributable — capacity aborts fall
  monotonically with the read-set budget, hybrid runs produce
  ``hybrid-slowpath`` aborts concurrent with hardware commits, and
  ``repro inspect`` attributes them.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import run_workload
from repro.analysis.forensics import collect_forensics
from repro.experiments.runner import RunConfig
from repro.htm.signature import BoundedPerfectSignature, FootprintOverflow
from repro.htm.stats import AbortReason
from repro.sim.config import table2_config
from repro.systems import get_spec
from repro.systems.spec import SystemSpec

FAST = dict(threads=8, seed=1, scale=0.25)


# ----------------------------------------------------------------------
# Spec-level validation of the new knobs.
# ----------------------------------------------------------------------
class TestSpecValidation:
    def test_fallback_vocabulary_enforced(self):
        with pytest.raises(ValueError, match="fallback"):
            SystemSpec(name="x", label="x", fallback="optimistic")

    def test_hybrid_plus_power_forbidden(self):
        with pytest.raises(ValueError, match="power"):
            SystemSpec(
                name="x", label="x", fallback="hybrid", priority="power"
            )

    def test_read_set_limit_excludes_signature_bits(self):
        with pytest.raises(ValueError, match="exclusive"):
            SystemSpec(
                name="x", label="x", read_set_limit=8, signature_bits=256
            )

    @pytest.mark.parametrize(
        "knob", ["signature_bits", "read_set_limit", "write_set_limit"]
    )
    def test_capacity_knobs_must_be_positive(self, knob):
        with pytest.raises(ValueError, match="positive"):
            SystemSpec(name="x", label="x", **{knob: 0})
        with pytest.raises(ValueError, match="positive"):
            table2_config("baseline").replace(**{knob: 0})

    def test_negative_retries_rejected_when_the_spec_is_built(self):
        # At construction, not at the first table2_config after register.
        with pytest.raises(ValueError, match="retries"):
            SystemSpec(name="x", label="x", retries=-1)

    def test_paper_systems_leave_knobs_inert(self):
        for spec in ("htm-be", "chats", "pchats", "power", "levc-be-idealized"):
            s = get_spec(spec)
            assert s.fallback == "lock"
            assert s.signature_bits is None
            assert s.read_set_limit is None
            assert s.write_set_limit is None

    def test_describe_shows_the_new_knobs(self):
        cap = get_spec("cap-be")
        assert "rs-limit=64" in cap.describe_table2()
        assert "ws-limit=32" in cap.describe_table2()
        hybrid = get_spec("hybrid-be")
        assert "fallback=hybrid" in hybrid.describe_layers()
        assert "fallback" not in get_spec("htm-be").describe_layers()


# ----------------------------------------------------------------------
# Bounded signature unit behaviour.
# ----------------------------------------------------------------------
class TestBoundedSignature:
    def test_overflow_raises_on_first_new_block_past_budget(self):
        sig = BoundedPerfectSignature(2)
        sig.add(10)
        sig.add(20)
        with pytest.raises(FootprintOverflow) as exc:
            sig.add(30)
        assert exc.value.block == 30

    def test_readding_tracked_block_is_free(self):
        sig = BoundedPerfectSignature(2)
        sig.add(10)
        sig.add(20)
        sig.add(10)  # already tracked: no overflow
        assert sig.test(10) and sig.test(20)


# ----------------------------------------------------------------------
# Capacity-limited systems end to end.
# ----------------------------------------------------------------------
class TestCapacitySystems:
    def test_capacity_aborts_fall_with_read_set_budget(self):
        table = table2_config("cap-be")
        counts = []
        for limit in (4, 8, 16, 64):
            htm = dataclasses.replace(table, read_set_limit=limit)
            result = run_workload("llb-l", "cap-be", htm=htm, **FAST)
            counts.append(result.stats.aborts.get(AbortReason.CAPACITY, 0))
        assert counts[0] > 0, "smallest budget should overflow on llb-l"
        assert counts == sorted(counts, reverse=True), (
            f"capacity aborts should fall with the budget, got {counts}"
        )

    def test_write_set_limit_raises_capacity_aborts(self):
        table = table2_config("cap-be")
        htm = dataclasses.replace(
            table, read_set_limit=None, write_set_limit=1
        )
        result = run_workload("intruder", "cap-be", htm=htm, **FAST)
        assert result.stats.aborts.get(AbortReason.CAPACITY, 0) > 0

    def test_capacity_abort_serializes_immediately(self):
        """A capacity abort means "retry not helpful": the transaction
        goes to the fallback path, so the run still completes and every
        overflowing transaction commits serially."""
        table = table2_config("cap-be")
        htm = dataclasses.replace(table, read_set_limit=4)
        result = run_workload("llb-l", "cap-be", htm=htm, **FAST)
        assert result.stats.tx_fallback_commits > 0

    def test_bloom_signature_system_runs(self):
        result = run_workload("vacation", "bloom-be", **FAST)
        assert result.stats.tx_commits > 0
        # Bloom aliasing shows up as conflicts, never as capacity aborts.
        assert result.stats.aborts.get(AbortReason.CAPACITY, 0) == 0

    def test_deterministic(self):
        a = run_workload("llb-l", "cap-be", **FAST)
        b = run_workload("llb-l", "cap-be", **FAST)
        assert a.to_dict() == b.to_dict()

    def test_capacity_aborts_are_attributed(self):
        _, report = collect_forensics(
            RunConfig.make("llb-l", "cap-be", **FAST)
        )
        breakdown = report.attribution.breakdown()
        assert breakdown["capacity"] > 0
        assert report.attribution.attributed_fraction >= 0.95


# ----------------------------------------------------------------------
# Hybrid-fallback systems end to end.
# ----------------------------------------------------------------------
class TestHybridSystems:
    def test_slowpath_runs_concurrently_not_behind_the_lock(self):
        result = run_workload("cadd", "hybrid-be", **FAST)
        stats = result.stats
        assert stats.tx_fallback_commits > 0, "cadd should hit the fallback"
        # Hardware transactions that touch an owned block abort with the
        # hybrid cause; the global lock is never taken.
        assert stats.aborts.get(AbortReason.HYBRID, 0) > 0
        assert stats.aborts.get(AbortReason.LOCK, 0) == 0

    def test_hardware_commits_during_slowpath_spans(self):
        """The concurrency claim itself: hardware commit cycles overlap
        software slow-path spans (a global lock would forbid this)."""
        from repro.obs.ledger import TxLedger
        from repro.sim.simulator import Simulator
        from repro.workloads.base import make_workload

        wl = make_workload("cadd", **FAST)
        sim = Simulator(wl, htm=table2_config("hybrid-be"))
        ledger = TxLedger(sim)
        with ledger:
            sim.run()
        spans = ledger.fallbacks
        assert spans, "expected at least one slow-path span"
        overlapping = sum(
            1
            for a in ledger.attempts
            if a.outcome == "committed"
            and any(
                s.begin <= a.end <= s.end and s.core != a.core
                for s in spans
            )
        )
        assert overlapping > 0, (
            "no hardware transaction committed inside another core's "
            "slow-path span — fallback is serializing"
        )

    def test_hybrid_aborts_are_attributed(self):
        _, report = collect_forensics(
            RunConfig.make("cadd", "hybrid-be", **FAST)
        )
        breakdown = report.attribution.breakdown()
        assert breakdown["hybrid-slowpath"] > 0
        assert report.attribution.attributed_fraction >= 0.95

    def test_chats_layers_compose_with_hybrid_fallback(self):
        result = run_workload("cadd", "hybrid-chats", **FAST)
        stats = result.stats
        assert stats.tx_commits > 0
        assert stats.spec_forwards > 0, "CHATS forwarding should still fire"
        assert stats.aborts.get(AbortReason.LOCK, 0) == 0

    def test_deterministic(self):
        a = run_workload("cadd", "hybrid-be", **FAST)
        b = run_workload("cadd", "hybrid-be", **FAST)
        assert a.to_dict() == b.to_dict()
