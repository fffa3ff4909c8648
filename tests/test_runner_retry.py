"""Tests for ``run_many``'s retry paths.

A worker (or serial attempt) that dies is retried exactly once through
the same execution callable as the first attempt.  The regression this
file pins: retries used to bypass the forensics-mode callable (losing
the manifest digest) and the serial retry's wall-time was measured from
the *failed* attempt's start, charging the successful run for both.

The injectable failure is a registered workload whose constructor raises
on the first attempt per (marker-dir, seed) and succeeds afterwards.
The marker directory travels through ``REPRO_TEST_FLAKY_DIR`` so forked
pool workers see the same first-attempt state as the parent.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.runner import (
    RunConfig,
    clear_cache,
    last_manifest,
    run_many,
)
from repro.workloads.base import register
from repro.workloads.synth import CounterWorkload

FAST = dict(threads=2, scale=0.1)

#: Env var naming the marker directory; one ``attempt-<seed>`` file per
#: config records that its first attempt already failed.
FLAKY_DIR_ENV = "REPRO_TEST_FLAKY_DIR"

#: How long the injected failure burns before raising — the timing test
#: asserts the manifest charges the retried config *less* than this.
FAIL_SLEEP = 0.2


@register
class FlakyCounter(CounterWorkload):
    """Counter workload whose first construction per seed fails."""

    name = "flaky-counter"

    def __init__(self, *, threads: int = 16, seed: int = 1, scale: float = 1.0):
        marker_dir = os.environ.get(FLAKY_DIR_ENV)
        if marker_dir:
            marker = Path(marker_dir) / f"attempt-{seed}"
            if not marker.exists():
                marker.touch()
                time.sleep(FAIL_SLEEP)
                raise RuntimeError("injected first-attempt failure")
        super().__init__(threads=threads, seed=seed, scale=scale)


@register
class BrokenCounter(CounterWorkload):
    """Counter workload that fails on every attempt."""

    name = "broken-counter"

    def __init__(self, *, threads: int = 16, seed: int = 1, scale: float = 1.0):
        raise RuntimeError("injected permanent failure")


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setattr(runner, "_cache_dir_override", None)
    monkeypatch.setattr(runner, "_disk_cache_override", None)
    monkeypatch.setattr(runner, "_default_progress", None)
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def flaky_markers(tmp_path, monkeypatch):
    """Arm the injectable failure; returns the marker directory."""
    marker_dir = tmp_path / "flaky"
    marker_dir.mkdir()
    monkeypatch.setenv(FLAKY_DIR_ENV, str(marker_dir))
    yield marker_dir


def _flaky(seed: int = 1) -> RunConfig:
    return RunConfig.make("flaky-counter", "htm-be", seed=seed, **FAST)


class TestSerialRetry:
    def test_first_failure_is_retried_once(self, flaky_markers):
        results = run_many([_flaky()], workers=1, use_cache=False)
        assert len(results) == 1
        assert results[0].workload == "flaky-counter"
        # Marker proves the first attempt really failed before the retry.
        assert (flaky_markers / "attempt-1").exists()
        assert last_manifest().executed == 1

    def test_retry_matches_clean_run(self, flaky_markers):
        flaky = run_many([_flaky()], workers=1, use_cache=False)[0]
        clean = run_many(
            [RunConfig.make("counter", "htm-be", **FAST)],
            workers=1,
            use_cache=False,
        )[0]
        # Same simulated machine and schedule: only the workload name in
        # the result envelope differs.
        assert flaky.cycles == clean.cycles
        assert flaky.stats == clean.stats

    def test_timing_covers_only_the_successful_attempt(self, flaky_markers):
        cfg = _flaky()
        run_many([cfg], workers=1, use_cache=False)
        entry = last_manifest().entry_for(cfg)
        assert entry is not None and entry.source == "run"
        # The failed attempt slept FAIL_SLEEP before dying; the recorded
        # wall-time must exclude it (the fast retry runs in well under
        # FAIL_SLEEP on any host).
        assert entry.seconds < FAIL_SLEEP, (
            f"manifest charged {entry.seconds:.3f}s — looks like the "
            "failed attempt's time leaked into the retry's measurement"
        )

    def test_second_failure_raises_with_config(self):
        bad = RunConfig.make("broken-counter", "htm-be", **FAST)
        with pytest.raises(RuntimeError, match="failed twice") as exc:
            run_many([bad], workers=1, use_cache=False)
        assert "broken-counter" in str(exc.value)


class TestPoolRetry:
    def test_in_pool_first_failures_are_retried(self, flaky_markers):
        # Two distinct misses + workers=2 takes the process-pool path;
        # each config's first attempt fails in its worker and is
        # resubmitted to the pool.
        cfgs = [_flaky(seed=1), _flaky(seed=2)]
        results = run_many(cfgs, workers=2, use_cache=False)
        assert len(results) == 2
        assert {p.name for p in flaky_markers.iterdir()} == {
            "attempt-1",
            "attempt-2",
        }
        assert last_manifest().executed == 2

    def test_pool_second_failure_raises_with_config(self):
        bad = RunConfig.make("broken-counter", "htm-be", **FAST)
        other = RunConfig.make("counter", "htm-be", **FAST)
        with pytest.raises(RuntimeError, match="failed twice"):
            run_many([bad, other], workers=2, use_cache=False)


class TestForensicsRetry:
    def test_retry_keeps_the_manifest_digest(self, flaky_markers):
        cfg = _flaky()
        run_many([cfg], workers=1, use_cache=False, forensics=True)
        entry = last_manifest().entry_for(cfg)
        assert entry is not None and entry.source == "run"
        # The retry runs through the same forensic callable as a clean
        # first attempt, so the digest survives the failure.
        assert entry.forensics is not None
        assert entry.forensics.get("aborts") is not None


# ----------------------------------------------------------------------
# Broken pools: a worker that dies hard costs every config in flight one
# of its two attempts.
# ----------------------------------------------------------------------

#: Env var naming the marker directory of the worker-killing workloads;
#: one ``<name>-attempt-<n>`` file per attempt, so tests count attempts.
CRASH_DIR_ENV = "REPRO_TEST_CRASH_DIR"

#: Pid of the test process: the workloads below kill pool workers only,
#: never the process running the tests.
PARENT_PID_ENV = "REPRO_TEST_PARENT_PID"


def _record_attempt(marker_dir: Path, name: str) -> int:
    """Record one attempt of ``name``; returns its 1-based number."""
    n = 1
    while True:
        try:
            (marker_dir / f"{name}-attempt-{n}").touch(exist_ok=False)
            return n
        except FileExistsError:
            n += 1


def _await_markers(marker_dir: Path, pattern: str, count: int) -> None:
    deadline = time.monotonic() + 30.0
    while len(list(marker_dir.glob(pattern))) < count:
        if time.monotonic() > deadline:
            return
        time.sleep(0.01)


def _in_pool_worker() -> bool:
    return os.environ.get(PARENT_PID_ENV) not in (None, str(os.getpid()))


@register
class WorkerKillingCounter(CounterWorkload):
    """Counter workload whose first attempt per seed kills its pool
    worker, once both seeds' first attempts are running."""

    name = "worker-killing-counter"

    def __init__(self, *, threads: int = 16, seed: int = 1, scale: float = 1.0):
        marker_dir = os.environ.get(CRASH_DIR_ENV)
        if marker_dir:
            marker_dir = Path(marker_dir)
            attempt = _record_attempt(marker_dir, f"kill-{seed}")
            if attempt == 1 and _in_pool_worker():
                _await_markers(marker_dir, "kill-*-attempt-1", 2)
                os._exit(1)
        super().__init__(threads=threads, seed=seed, scale=scale)


@register
class RetryThenBreakCounter(CounterWorkload):
    """Seed 1 (config A) raises on its first pool attempt and keeps its
    resubmitted attempt running; seed 2 (config B) kills its worker once
    A's resubmitted attempt has started."""

    name = "retry-then-break-counter"

    def __init__(self, *, threads: int = 16, seed: int = 1, scale: float = 1.0):
        marker_dir = os.environ.get(CRASH_DIR_ENV)
        if marker_dir:
            marker_dir = Path(marker_dir)
            attempt = _record_attempt(marker_dir, f"break-{seed}")
            if _in_pool_worker() and seed == 1:
                if attempt == 1:
                    raise RuntimeError("injected first-attempt failure")
                time.sleep(10.0)  # the pool breaks (and kills us) meanwhile
            elif _in_pool_worker() and attempt == 1:
                _await_markers(marker_dir, "break-1-attempt-2", 1)
                os._exit(1)
        super().__init__(threads=threads, seed=seed, scale=scale)


@pytest.fixture
def crash_markers(tmp_path, monkeypatch):
    """Arm the worker-killing workloads; returns the marker directory."""
    marker_dir = tmp_path / "crash"
    marker_dir.mkdir()
    monkeypatch.setenv(CRASH_DIR_ENV, str(marker_dir))
    monkeypatch.setenv(PARENT_PID_ENV, str(os.getpid()))
    yield marker_dir


def _attempts(marker_dir: Path, name: str) -> int:
    return len(list(marker_dir.glob(f"{name}-attempt-*")))


class TestBrokenPool:
    def test_killed_workers_cost_one_attempt_each(self, crash_markers):
        from repro.obs import telemetry as fleet

        cfgs = [
            RunConfig.make("worker-killing-counter", "htm-be", seed=s, **FAST)
            for s in (1, 2)
        ]
        with fleet.session_scope() as session:
            results = run_many(cfgs, workers=2, use_cache=False)
        assert _attempts(crash_markers, "kill-1") == 2
        assert _attempts(crash_markers, "kill-2") == 2
        assert last_manifest().executed == 2
        for cfg, result in zip(cfgs, results):
            clean = run_many(
                [RunConfig.make("counter", "htm-be", seed=cfg.seed, **FAST)],
                workers=1,
                use_cache=False,
            )[0]
            assert result.cycles == clean.cycles
            assert result.stats == clean.stats

        spans = session.spans
        retries = [s for s in spans if s.name == "retry"]
        submits = [s for s in spans if s.name == "submit"]
        succeeded = [s for s in spans if s.name == "execute" and s.status == "ok"]
        assert len(retries) == len(submits) == len(succeeded) == 2
        assert {r.parent_id for r in retries} == {s.span_id for s in submits}
        assert {s.parent_id for s in succeeded} == {r.span_id for r in retries}

    def test_pool_break_during_a_retry_is_the_second_failure(self, crash_markers):
        a, b = (
            RunConfig.make("retry-then-break-counter", "htm-be", seed=s, **FAST)
            for s in (1, 2)
        )
        with pytest.raises(RuntimeError, match="failed twice") as exc:
            run_many([a, b], workers=2, use_cache=False)
        assert f"seed={a.seed} " in str(exc.value)
        assert _attempts(crash_markers, "break-1") <= 2
