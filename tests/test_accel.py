"""The accelerated hot core: backend selection, parity, and fallback.

Cross-backend *behavioural* identity is enforced by the golden suite
(``test_golden_determinism.py`` runs all 42 digests under every
available backend); this module covers the selection machinery itself —
resolution, fallback warnings, component factories — plus fine-grained
parity of the compiled engine/message primitives, which the digests
exercise only end-to-end.
"""

import json
import warnings
from pathlib import Path

import pytest

from repro import accel

needs_compiled = pytest.mark.skipif(
    not accel.compiled_available(),
    reason="compiled backend not built (scripts/build_accel.py)",
)


@pytest.fixture
def pristine_selection(monkeypatch):
    """Undo any selection leakage and clear the warn-once registry."""
    monkeypatch.setattr(accel, "_selected", None)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.setattr(accel, "_warned_fallbacks", set())
    yield


@pytest.fixture
def no_compiled(monkeypatch, pristine_selection):
    """Pretend the C extension is not built (probe already done)."""
    monkeypatch.setattr(accel, "_compiled_mod", None)
    monkeypatch.setattr(accel, "_compiled_probe_done", True)
    yield


# ----------------------------------------------------------------------
# Selection and fallback
# ----------------------------------------------------------------------


class TestSelection:
    def test_default_is_python(self, pristine_selection):
        assert accel.current_backend() == "python"
        assert accel.resolved_backend() == "python"

    def test_unknown_backend_rejected(self, pristine_selection):
        with pytest.raises(accel.UnknownBackendError):
            accel.select_backend("fortran")

    def test_unknown_env_value_rejected(self, pristine_selection, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fortran")
        with pytest.raises(accel.UnknownBackendError):
            accel.current_backend()

    def test_auto_is_an_unknown_backend(self, pristine_selection, monkeypatch):
        """``auto`` was ``compiled`` under a second name; it is gone."""
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        with pytest.raises(accel.UnknownBackendError):
            accel.current_backend()
        with pytest.raises(accel.UnknownBackendError):
            accel.select_backend("auto")

    def test_lanes_backend_is_gone(self, pristine_selection, monkeypatch):
        from repro.__main__ import build_parser

        assert accel.BACKENDS == ("python", "compiled")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "counter", "--backend", "lanes"])
        monkeypatch.setenv("REPRO_BACKEND", "lanes")
        with pytest.raises(accel.UnknownBackendError):
            accel.current_backend()

    def test_env_var_selects(self, pristine_selection, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert accel.current_backend() == "python"

    def test_select_writes_env_for_workers(self, pristine_selection):
        import os

        with accel.use("python"):
            assert os.environ["REPRO_BACKEND"] == "python"
        assert "REPRO_BACKEND" not in os.environ

    def test_use_restores_prior_selection(self, pristine_selection):
        accel.select_backend("python")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # compiled may be unbuilt
            with accel.use("compiled"):
                assert accel.current_backend() == "compiled"
        assert accel.current_backend() == "python"

    @needs_compiled
    def test_compiled_resolves_when_built(self, pristine_selection):
        with accel.use("compiled"):
            assert accel.resolved_backend() == "compiled"
            assert accel.compiled_active()

    def test_python_backend_never_uses_extension(self, pristine_selection):
        with accel.use("python"):
            assert not accel.compiled_active()
            assert accel.hotcore() is None
            from repro.net.messages import make_message
            from repro.sim.engine import Engine

            assert isinstance(accel.make_engine(), Engine)
            assert accel.message_factory() is make_message


class TestFallback:
    def test_explicit_compiled_degrades_with_warning(self, no_compiled):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with accel.use("compiled"):
                assert accel.resolved_backend() == "python"
                # Repeated resolution must not warn again.
                assert accel.resolved_backend() == "python"
                assert accel.resolved_backend() == "python"
        fallback = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(fallback) == 1
        assert "falling back" in str(fallback[0].message)

    def test_degraded_compiled_still_runs_simulations(self, no_compiled):
        from repro.sim.simulator import run_simulation
        from repro.workloads.base import make_workload

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with accel.use("compiled"):
                result = run_simulation(
                    make_workload("synth", threads=2, seed=1, scale=0.05),
                    "chats",
                )
        assert result.cycles > 0


# ----------------------------------------------------------------------
# Compiled engine parity
# ----------------------------------------------------------------------


@needs_compiled
class TestCompiledEngineParity:
    def both_engines(self):
        from repro.sim.engine import Engine

        return Engine(), accel._load_compiled().Engine()

    def test_mixed_delay_ordering(self):
        # Bucket drains before the delay-1 lane; zero-delay events run
        # in the same cycle after the currently-draining phase.
        for engine in self.both_engines():
            order = []

            def spawn(e=engine, order=order):
                order.append("a")
                e.schedule(0, lambda: order.append("c"))
                e.schedule(1, lambda: order.append("b"))

            engine.schedule(1, spawn)
            engine.schedule(2, lambda: order.append("d"))
            engine.run()
            assert order == ["a", "c", "d", "b"], order

    def test_cancel_and_counts(self):
        for engine in self.both_engines():
            fired = []
            keep = engine.schedule(5, lambda: fired.append("keep"))
            kill = engine.schedule(5, lambda: fired.append("kill"))
            engine.cancel(kill)
            engine.run()
            assert fired == ["keep"]
            assert engine.events_processed == 1
            assert keep is not None

    def test_schedule_into_past_message_parity(self):
        py, c = self.both_engines()
        with pytest.raises(ValueError) as py_exc:
            py.schedule(-1, lambda: None)
        with pytest.raises(ValueError) as c_exc:
            c.schedule(-1, lambda: None)
        assert str(py_exc.value) == str(c_exc.value)

    def test_livelock_message_parity(self):
        def runaway(engine):
            def tick():
                engine.schedule(1, tick)

            engine.schedule(1, tick)
            with pytest.raises(RuntimeError) as exc:
                engine.run(max_events=10)
            return str(exc.value)

        py, c = self.both_engines()
        assert runaway(py) == runaway(c)

    def test_compaction_churn_parity(self):
        # Enough cancels to trip compaction (threshold 64) repeatedly.
        for engine in self.both_engines():
            for i in range(500):
                engine.cancel(engine.schedule(1000 + i, lambda: None))
            survivor = []
            engine.schedule(2000, lambda: survivor.append(True))
            engine.run()
            assert survivor == [True]
            assert engine.events_processed == 1

    def test_compaction_of_a_wrapped_zero_delay_lane(self):
        """Compaction triggered while the zero-delay ring has wrapped past
        the end of its buffer keeps every live event, in order.

        The 41 events of cycle 1 fill the compiled lane's 64-slot ring
        from slot 0; by the time the 30 spawns have fired, their
        zero-delay events sit in slots 41-63 and wrap to 0-6, and the
        last event cancels 100 timers, enough to trip compaction."""

        def fired_order(engine):
            fired = []
            timers = [
                engine.schedule(10_000, fired.append, "timer")
                for _ in range(100)
            ]

            def spawn(i):
                fired.append(("spawn", i))
                engine.schedule(0, fired.append, ("zero", i))

            def cancel_timers():
                fired.append("cancel")
                for timer in timers:
                    engine.cancel(timer)

            for i in range(30):
                engine.schedule(1, spawn, i)
            for i in range(10):
                engine.schedule(1, fired.append, ("plain", i))
            engine.schedule(1, cancel_timers)
            engine.run()
            return fired, engine.events_processed

        py, c = (fired_order(engine) for engine in self.both_engines())
        assert py[1] == 71
        assert c == py


# ----------------------------------------------------------------------
# Compiled message parity
# ----------------------------------------------------------------------


@needs_compiled
class TestCompiledMessageParity:
    FIELDS = (
        "kind", "src", "dst", "block", "data", "requester", "exclusive",
        "pic", "power", "timestamp", "epoch", "req_id", "can_consume",
        "is_validation", "non_transactional", "req_produced",
        "req_consumed", "action",
    )

    def make_pair(self, **kwargs):
        from repro.net.messages import make_message

        return (
            make_message(**kwargs),
            accel._load_compiled().make_message(**kwargs),
        )

    def test_field_parity(self):
        from repro.net.messages import DIRECTORY, MessageKind

        py, c = self.make_pair(
            kind=MessageKind.GETX, src=3, dst=DIRECTORY, block=0x40,
            pic=7, exclusive=True, epoch=2, req_id=11, action="fwd",
        )
        for field in self.FIELDS:
            assert getattr(py, field) == getattr(c, field), field

    def test_repr_parity(self):
        from repro.net.messages import MessageKind

        py, c = self.make_pair(
            kind=MessageKind.GETS, src=1, dst=2, block=0x80, epoch=3
        )
        assert repr(py) == repr(c)


# ----------------------------------------------------------------------
# Stamping: manifests and bench reports
# ----------------------------------------------------------------------


class TestStamping:
    def test_manifest_records_backend(self, pristine_selection):
        from repro.experiments import runner

        with accel.use("python"):
            runner.run_many(
                [
                    runner.RunConfig.make(
                        "synth", "chats", threads=2, seed=1, scale=0.05
                    )
                ],
                workers=1,
                use_cache=False,
            )
            manifest = runner.last_manifest()
        assert manifest.backend == "python"
        assert manifest.entries[0].resources["backend"] == "python"

    def test_bench_output_path_stamps_backend(self):
        from repro.experiments import bench

        base = Path("/tmp")
        py = bench.default_output_path(
            {"rev": "abc1234", "backend": "python"}, base
        )
        comp = bench.default_output_path(
            {"rev": "abc1234", "backend": "compiled"}, base
        )
        assert py.name == "BENCH_abc1234.json"
        assert comp.name == "BENCH_abc1234+compiled.json"

    def test_check_bench_gates_same_backend_only(self, tmp_path):
        import subprocess
        import sys

        report = {
            "schema": 1,
            "rev": "abc1234",
            "created_unix": 1,
            "python": "3.11.7",
            "backend": "compiled",
            "quick": True,
            "repeat": 1,
            "peak_rss_kb": 1000,
            "cases": {
                "synth/chats/t8/s1/x1": {
                    "workload": "synth", "system": "chats", "threads": 8,
                    "seed": 1, "scale": 1.0, "events": 100, "cycles": 10,
                    "seconds_best": 0.1, "seconds_all": [0.1],
                    "events_per_sec": 1000.0,
                }
            },
        }
        report_path = tmp_path / "BENCH_abc1234+compiled.json"
        report_path.write_text(json.dumps(report))
        # Python-only baseline: the compiled report must SKIP, not gate
        # against the (much lower) python floors.
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            json.dumps({"cases": {"synth/chats/t8/s1/x1": 900_000}})
        )
        script = (
            Path(__file__).resolve().parent.parent
            / "scripts"
            / "check_bench.py"
        )
        proc = subprocess.run(
            [
                sys.executable, str(script), str(report_path),
                "--baseline", str(baseline_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "SKIP all" in proc.stdout
