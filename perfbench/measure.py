"""The three benchmark workloads, measured through the public API.

Imported by ``run.py`` after it has pinned the ``REPRO_*`` environment and
put the checkout's ``src`` first on ``sys.path``.

* ``sim-chats-llbh`` / ``sim-be-kmeansh``: ``make_workload`` +
  ``Simulator(...).run()`` on the Python backend.  The *cold* figures are
  one-shot child processes (interpreter start, import, set-up and one
  simulation); the *warm* figures are simulations inside this process,
  after one untimed warm-up simulation and interleaved with the one-shot
  processes, so warm-up is reported, not mixed into the steady state.
* ``report-sweep``: the union of every figure's ``experiment_configs``
  through ``runner.run_many`` and then ``run_figure`` per figure, the way
  ``repro report`` runs them: once into a fresh store (cold), then again
  after ``runner.clear_cache()`` against the same store (warm).

Every simulation and every sweep pass is one operation.  An exception or
an output that differs from the digest pinned in ``pinned.json`` fails
the operation, and its timing is dropped from the metrics.  Every timed
operation is bracketed by the host-speed reference of ``hostref.py`` and
normalised by it; a metric is the median of its normalised samples.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import runner
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.registry import experiment_configs
from repro.obs import telemetry
from repro.sim.config import table2_config
from repro.sim.simulator import Simulator
from repro import store as store_pkg
from repro.workloads.base import make_workload

from hostref import HostRef, pin_to_one_cpu
from layers import PROFILED_LAYERS, UNMAPPED, ProfileBuckets

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED_PATH = HERE / "pinned.json"


@dataclass(frozen=True)
class SimCase:
    workload: str
    system: str
    threads: int
    scale: float


SIMS: Dict[str, SimCase] = {
    "sim-chats-llbh": SimCase("llb-h", "chats", threads=16, scale=0.2),
    "sim-be-kmeansh": SimCase("kmeans-h", "baseline", threads=16, scale=0.5),
}
SWEEP = "report-sweep"
SWEEP_WORKERS = 2  # scale and threads are pinned through REPRO_* by run.py

MIN_ROUNDS = 3  # rounds of a one-shot process and a warm simulation, at least
SWEEP_SETUPS = 15  # set-ups per sweep run, at least
WARM_PER_COLD = 3  # warm sweep passes after each cold pass
MIN_COLD_PASSES = 3
MAX_OPS = 500


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text("utf-8"))


class Mismatch(Exception):
    """An output differs from what the benchmark expects."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def attempt(self, fn: Callable[[], object]) -> Optional[object]:
        """Run one operation; ``None`` when it raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # any failure is a failed operation
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


@dataclass
class Outcome:
    tally: Tally
    metrics: Dict[str, Tuple[float, str]]
    notes: Dict[str, float] = field(default_factory=dict)  # context for the stderr table


def result_digest(result) -> str:
    """sha256 of the canonical result payload (as ``scripts/gen_golden.py``)."""
    payload = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _median(values: List[float]) -> float:
    if not values:
        raise RuntimeError("no successful operation to measure")
    return statistics.median(values)


def _another_round(start: float, seconds: float, rounds: int, minimum: int) -> bool:
    """Whether one more round, as long as the average so far, still ends
    within ``seconds`` of ``start`` (always, until ``minimum`` rounds)."""
    if rounds < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / max(rounds, 1) <= seconds


def _cpu_all() -> float:
    """CPU seconds of this process plus its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _children_cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Simulations.
# ----------------------------------------------------------------------
def sim_once(case: SimCase, seed: int, profiler: Optional[cProfile.Profile] = None):
    """(result, setup_s, wall_s, cpu_s) of one simulation."""
    t0 = time.perf_counter()
    wl = make_workload(case.workload, threads=case.threads, seed=seed, scale=case.scale)
    sim = Simulator(wl, htm=table2_config(case.system))
    setup = time.perf_counter() - t0
    if profiler is not None:
        profiler.enable()
    w0, c0 = time.perf_counter(), time.process_time()
    result = sim.run()
    cpu, wall = time.process_time() - c0, time.perf_counter() - w0
    if profiler is not None:
        profiler.disable()
    return result, setup, wall, cpu


def _check_sim(name: str, seed: int, digest: str) -> None:
    expected = load_pinned()[name][str(seed)]
    if digest != expected:
        raise Mismatch(f"{name} seed {seed}: digest {digest[:12]} != pinned {expected[:12]}")


def cold_child(name: str, seed: int) -> dict:
    """Body of a one-shot child process: one simulation, its digest."""
    result, _setup, _wall, _cpu = sim_once(SIMS[name], seed)
    return {"digest": result_digest(result)}


def _run_cold_child(name: str, seed: int, pycache: Path) -> Tuple[float, float]:
    """(wall, cpu) of one one-shot process.  Its bytecode cache lives in
    ``pycache``, whatever the caller's ``PYTHONDONTWRITEBYTECODE``, so
    every one-shot process but the first loads compiled modules."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    cpu0, w0 = _children_cpu(), time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--cold-child", name, str(seed)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=150,
    )
    wall, cpu = time.perf_counter() - w0, _children_cpu() - cpu0
    if proc.returncode != 0:
        raise RuntimeError(f"cold child exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    _check_sim(name, seed, json.loads(proc.stdout.strip().splitlines()[-1])["digest"])
    return wall, cpu


def measure_sim(name: str, seeds: List[int], seconds: float, work: Path) -> Outcome:
    """An untimed one-shot process and warm-up simulation, then rounds of
    one one-shot process and one warm simulation, so cold and warm samples
    are spread over the whole run.  Round ``i`` simulates workload seed
    ``seeds[i % len(seeds)]``, so the run's medians cover several inputs.
    This process and its one-shot processes run on one CPU, the one the
    host reference times.  Every sample is normalised by the reference."""
    pin_to_one_cpu()
    case, tally, ref = SIMS[name], Tally(), HostRef()
    pycache = work / "pycache"

    def warm_once(seed: int):
        gc.collect()
        result, setup, wall, cpu = sim_once(case, seed)
        _check_sim(name, seed, result_digest(result))
        return result.events, setup, wall, cpu

    tally.attempt(lambda: _run_cold_child(name, seeds[0], pycache))  # fills the bytecode cache
    tally.attempt(lambda: warm_once(seeds[0]))  # the process's first simulation runs slower
    cold: List[Tuple[float, float]] = []
    warm: List[Tuple[float, float, float, float]] = []
    raw_cold: List[float] = []
    start = time.perf_counter()
    rounds = 0
    while _another_round(start, seconds, rounds, MIN_ROUNDS) and tally.attempted < MAX_OPS:
        seed = seeds[rounds % len(seeds)]
        rounds += 1
        rep = tally.attempt(lambda: ref.bracket(lambda: _run_cold_child(name, seed, pycache)))
        if rep is not None:
            (wall, cpu), scale = rep
            cold.append((wall * scale, cpu * scale))
            raw_cold.append(wall)
        rep = tally.attempt(lambda: ref.bracket(lambda: warm_once(seed)))
        if rep is not None:
            (events, setup, wall, cpu), scale = rep
            cpu *= scale
            warm.append((events / cpu, setup * scale, wall * scale, cpu))
    return Outcome(
        tally,
        {
            "events_per_cpu_s": (_median([w[0] for w in warm]), "events/s"),
            "peak_rss_mb": (_peak_rss_mb(resource.RUSAGE_CHILDREN), "MiB"),
            "setup_s": (_median([w[1] for w in warm]), "s"),
            "cold_wall_s": (_median([c[0] for c in cold]), "s"),
            "cold_cpu_s": (_median([c[1] for c in cold]), "s"),
            "warm_wall_s": (_median([w[2] for w in warm]), "s"),
            "warm_cpu_s": (_median([w[3] for w in warm]), "s"),
        },
        {
            "cold samples": len(cold),
            "warm samples": len(warm),
            "host slowdown (x)": ref.slowdown(),
            "raw cold_wall_s": _median(raw_cold),
        },
    )


def _model_counts(results) -> Dict[str, Tuple[float, str]]:
    """Modelled per-layer counts, summed over ``results``."""
    def total(get) -> int:
        return sum(get(r) for r in results)

    events, cycles = total(lambda r: r.events), total(lambda r: r.cycles)
    attempts = total(lambda r: r.stats.tx_attempts)
    commits = total(lambda r: r.stats.tx_commits)
    validations = total(lambda r: r.stats.validations_attempted)
    validated = total(lambda r: r.stats.validations_succeeded)
    return {
        "engine.events": (events, "count"),
        "engine.events_per_cycle": (events / cycles, "events/cycle"),
        "net.messages": (total(lambda r: r.network["messages"]), "count"),
        "net.flits": (total(lambda r: r.network["flits"]), "count"),
        "net.spec_resp_flits": (total(lambda r: r.network["spec_resp_flits"]), "count"),
        "directory.requests": (total(lambda r: r.directory["requests"]), "count"),
        "directory.forwards": (total(lambda r: r.directory["forwards"]), "count"),
        "directory.inv_rounds": (total(lambda r: r.directory["inv_rounds"]), "count"),
        "directory.memory_fetches": (total(lambda r: r.directory["memory_fetches"]), "count"),
        "core.tx_attempts": (attempts, "count"),
        "core.tx_commits": (commits, "count"),
        "core.commit_ratio": (commits / attempts if attempts else 0.0, "ratio"),
        "core.fallback_commits": (total(lambda r: r.stats.tx_fallback_commits), "count"),
        "policy.spec_forwards": (total(lambda r: r.stats.spec_forwards), "count"),
        "policy.validations_attempted": (validations, "count"),
        "policy.validation_success_ratio": (
            validated / validations if validations else 0.0,
            "ratio",
        ),
        "policy.vsb_stall_cycles": (total(lambda r: r.stats.vsb_stall_cycles), "cycles"),
        "sim.cycles": (cycles, "cycles"),
    }


def _profile_metrics(profiler: cProfile.Profile) -> Dict[str, Tuple[float, str]]:
    stats = pstats.Stats(profiler).stats
    buckets = ProfileBuckets(SRC)
    self_s = buckets.bucket(stats)
    total = sum(self_s.values()) or 1.0
    out: Dict[str, Tuple[float, str]] = {}
    for layer in PROFILED_LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        out[f"{layer}.share"] = (self_s[layer] / total, "ratio")
    out["layers.coverage"] = (1.0 - self_s[UNMAPPED] / total, "ratio")
    out["l1.handle_calls"] = (buckets.calls(stats, "repro/mem/l1controller.py", "handle"), "count")
    out["directory.handle_calls"] = (buckets.calls(stats, "repro/mem/directory.py", "handle"), "count")
    return out


def trace_sim(name: str, seed: int) -> Outcome:
    """Two untraced simulations, then one under cProfile."""
    case, tally = SIMS[name], Tally()

    def once(profiler=None):
        gc.collect()
        result, _setup, _wall, cpu = sim_once(case, seed, profiler)
        _check_sim(name, seed, result_digest(result))
        return result, cpu

    plain = [tally.attempt(once) for _ in range(2)]
    plain_cpu = min(p[1] for p in plain if p is not None)
    profiler = cProfile.Profile()
    traced = tally.attempt(lambda: once(profiler))
    if traced is None:
        raise RuntimeError("the traced simulation failed: " + tally.errors[-1])
    result, traced_cpu = traced
    metrics = _profile_metrics(profiler)
    metrics.update(_model_counts([result]))
    metrics["trace.overhead"] = (traced_cpu / plain_cpu, "x")
    metrics.update(_pass_metrics("cold", None, None))
    metrics.update(_pass_metrics("warm", None, None))
    return Outcome(tally, metrics)


# ----------------------------------------------------------------------
# The report sweep.
# ----------------------------------------------------------------------
def sweep_setup(cache_dir: Path):
    """(union configs, setup_s): enumeration, first key with the source
    fingerprint, store open — what ``repro report`` pays before work."""
    store_pkg.drop_cached_instances()
    if hasattr(runner, "_CODE_FINGERPRINT"):
        runner._CODE_FINGERPRINT = None  # paid again, as in a new process
    runner.configure(cache_dir=str(cache_dir), disk_cache=True)
    t0 = time.perf_counter()
    union = [cfg for fid in sorted(FIGURES) for cfg in experiment_configs(fid)]
    union[0].key()
    runner.result_store()
    return union, time.perf_counter() - t0


@dataclass
class SweepPass:
    wall: float
    cpu: float
    events: int
    executed: int
    renderings: List[str]
    results: Dict[str, object]  # unique config key -> result
    render_s: float
    store_counts: Dict[str, int]


def sweep_pass(union, session: Optional[telemetry.TelemetrySession] = None) -> SweepPass:
    """One ``repro report``-style pass: ``run_many`` over the union, then
    every figure.  ``session`` records the ``run_many`` batch's spans."""
    runner.clear_cache()
    store = runner.result_store()
    store.counters.reset()
    c0, w0 = _cpu_all(), time.perf_counter()
    if session is not None:
        telemetry.install(session)
    try:
        results = runner.run_many(union, workers=SWEEP_WORKERS)
    finally:
        if session is not None:
            telemetry.uninstall(session)
    manifest = runner.last_manifest()
    r0 = time.perf_counter()
    renderings = [run_figure(fid).rendering for fid in sorted(FIGURES)]
    render_s = time.perf_counter() - r0
    wall, cpu = time.perf_counter() - w0, _cpu_all() - c0
    return SweepPass(
        wall=wall,
        cpu=cpu,
        events=manifest.events_simulated,
        executed=manifest.executed,
        renderings=renderings,
        results={cfg.key(): res for cfg, res in zip(union, results)},
        render_s=render_s,
        store_counts=store.counters.to_dict(),
    )


def sweep_digests(union, cold: SweepPass) -> Dict[str, str]:
    """Digests of a cold pass: every result (keyed by config, without the
    code fingerprint) and the figure renderings."""
    lines = sorted(
        json.dumps(cfg.to_dict(), sort_keys=True) + " " + result_digest(cold.results[cfg.key()])
        for cfg in {cfg.key(): cfg for cfg in union}.values()
    )
    return {
        "results": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "figures": hashlib.sha256("\n".join(cold.renderings).encode()).hexdigest(),
    }


def _check_cold(union, cold: SweepPass, seed: int) -> None:
    expected = load_pinned()[SWEEP][str(seed)]
    got = sweep_digests(union, cold)
    if cold.executed != len(cold.results):
        raise Mismatch(f"cold pass executed {cold.executed} of {len(cold.results)} configs")
    for part in ("results", "figures"):
        if got[part] != expected[part]:
            raise Mismatch(f"{SWEEP} seed {seed}: {part} digest {got[part][:12]} != pinned {expected[part][:12]}")


def _warm_pass(union, cold: SweepPass, session=None) -> SweepPass:
    warm = sweep_pass(union, session)
    if warm.executed != 0:
        raise Mismatch(f"warm pass executed {warm.executed} simulations")
    if warm.renderings != cold.renderings:
        raise Mismatch("warm figure renderings differ from the cold pass")
    return warm


def measure_sweep(seed: int, seconds: float, work: Path) -> Outcome:
    """Rounds of a set-up, a cold pass into a fresh store and warm passes
    against it, then set-ups alone until there are ``SWEEP_SETUPS``.
    The run, pool workers included, stays on one CPU, the one the host
    reference times: the workers time-share it, so the cold figures
    measure the work rather than how much of a second vCPU the shared
    host lends at the moment.  Every sample is normalised by the reference."""
    pin_to_one_cpu()
    tally, ref = Tally(), HostRef()
    setups: List[float] = []
    colds: List[Tuple[float, float, float]] = []  # events/cpu, wall, cpu
    warms: List[Tuple[float, float]] = []  # wall, cpu
    raw_cold: List[float] = []
    peak_rss = 0.0
    rep = 0

    def setup_in(store_dir: Path):
        (union, setup), scale = ref.bracket(lambda: sweep_setup(store_dir))
        setups.append(setup * scale)
        return union

    start = time.perf_counter()
    while _another_round(start, seconds, len(colds), MIN_COLD_PASSES) and tally.attempted < MAX_OPS:
        store_dir = work / f"store-{rep}"
        union = setup_in(store_dir)

        def cold_pass():
            cold = sweep_pass(union)
            _check_cold(union, cold, seed)
            return cold

        got = tally.attempt(lambda: ref.bracket(cold_pass))
        if got is not None:
            cold, scale = got
            cpu = cold.cpu * scale
            colds.append((cold.events / cpu, cold.wall * scale, cpu))
            raw_cold.append(cold.wall)
            for _ in range(WARM_PER_COLD):
                got = tally.attempt(lambda: ref.bracket(lambda: _warm_pass(union, cold)))
                if got is not None:
                    warm, scale = got
                    warms.append((warm.wall * scale, warm.cpu * scale))
        if rep == 0:
            peak_rss = max(_peak_rss_mb(resource.RUSAGE_SELF), _peak_rss_mb(resource.RUSAGE_CHILDREN))
        store_pkg.drop_cached_instances()
        shutil.rmtree(store_dir, ignore_errors=True)
        rep += 1
    while len(setups) < SWEEP_SETUPS:
        store_dir = work / f"store-{rep}"
        setup_in(store_dir)
        store_pkg.drop_cached_instances()
        shutil.rmtree(store_dir, ignore_errors=True)
        rep += 1
    return Outcome(
        tally,
        {
            "events_per_cpu_s": (_median([c[0] for c in colds]), "events/s"),
            "peak_rss_mb": (peak_rss, "MiB"),
            "setup_s": (_median(setups), "s"),
            "cold_wall_s": (_median([c[1] for c in colds]), "s"),
            "cold_cpu_s": (_median([c[2] for c in colds]), "s"),
            "warm_wall_s": (_median([w[0] for w in warms]), "s"),
            "warm_cpu_s": (_median([w[1] for w in warms]), "s"),
        },
        {
            "cold samples": len(colds),
            "warm samples": len(warms),
            "host slowdown (x)": ref.slowdown(),
            "raw cold_wall_s": _median(raw_cold),
        },
    )


def _pass_metrics(
    phase: str,
    sweep: Optional[SweepPass],
    session: Optional[telemetry.TelemetrySession],
) -> Dict[str, Tuple[float, str]]:
    """``runner.<phase>.*`` from the batch spans, ``store.<phase>.*`` from
    the store counters and ``figures.<phase>.render_s``; zero when the
    workload never enters the runner."""
    spans = session.spans if session is not None else []

    def seconds(name: str, ok_only: bool = False) -> float:
        return sum(s.seconds for s in spans if s.name == name and (s.status == "ok" or not ok_only))

    probes = [s for s in spans if s.name == "cache-probe"]
    hits = sum(1 for s in probes if s.attrs.get("outcome") == "hit")
    executed = sum(1 for s in spans if s.name == "execute" and s.status == "ok")
    counts = sweep.store_counts if sweep is not None else {}
    return {
        f"runner.{phase}.probe_s": (seconds("cache-probe"), "s"),
        f"runner.{phase}.probes": (len(probes), "count"),
        f"runner.{phase}.hit_ratio": (hits / len(probes) if probes else 0.0, "ratio"),
        f"runner.{phase}.execute_s": (seconds("execute", ok_only=True), "s"),
        f"runner.{phase}.executed": (executed, "count"),
        f"runner.{phase}.wait_s": (seconds("submit") - seconds("execute", ok_only=True), "s"),
        f"runner.{phase}.store_put_s": (seconds("serialize"), "s"),
        f"store.{phase}.hits": (counts.get("hits", 0), "count"),
        f"store.{phase}.misses": (counts.get("misses", 0), "count"),
        f"store.{phase}.puts": (counts.get("puts", 0), "count"),
        f"store.{phase}.corrupt": (counts.get("corrupt", 0), "count"),
        f"figures.{phase}.render_s": (sweep.render_s if sweep is not None else 0.0, "s"),
    }


def _stop_profiling() -> None:
    sys.setprofile(None)


def trace_sweep(seed: int, work: Path) -> Outcome:
    """An untraced cold pass for the overhead base, then a cold and a warm
    pass into a fresh store with batch spans on and the parent profiled.
    Simulations run in worker processes, so the layer self times cover
    the parent only; the modelled counts are summed over the cold pass."""
    tally = Tally()
    union, _ = sweep_setup(work / "store-plain")

    def cold_pass(session=None):
        cold = sweep_pass(union, session)
        _check_cold(union, cold, seed)
        return cold

    plain = tally.attempt(cold_pass)
    store_pkg.drop_cached_instances()
    # Only the parent is profiled: a forked pool worker stops profiling.
    os.register_at_fork(after_in_child=_stop_profiling)
    union, _ = sweep_setup(work / "store-traced")
    # CPU time, not wall: the parent mostly blocks on its pool workers.
    profiler = cProfile.Profile(time.process_time)
    cold_session, warm_session = telemetry.TelemetrySession(), telemetry.TelemetrySession()
    profiler.enable()
    cold = tally.attempt(lambda: cold_pass(cold_session))
    warm = tally.attempt(lambda: _warm_pass(union, cold, warm_session)) if cold else None
    profiler.disable()
    store_pkg.drop_cached_instances()
    if plain is None or cold is None or warm is None:
        raise RuntimeError("a traced sweep pass failed: " + "; ".join(tally.errors))
    metrics = _profile_metrics(profiler)
    metrics.update(_model_counts(list(cold.results.values())))
    metrics["trace.overhead"] = (cold.cpu / plain.cpu, "x")
    metrics.update(_pass_metrics("cold", cold, cold_session))
    metrics.update(_pass_metrics("warm", warm, warm_session))
    return Outcome(tally, metrics)
