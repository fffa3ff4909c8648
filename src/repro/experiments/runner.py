"""Cached, parallel experiment runner.

A :class:`RunConfig` is the whole description of one simulation, and
:func:`simulate` is the one place a simulation starts: pool workers,
forensic batches, ``repro trace``, ``repro inspect`` and ``repro
compare`` all go through it, passing any probe subscribers they want
attached.

Several figures are computed from the same simulations (Figs. 1, 4, 5, 6,
7, and 11 all derive from the main six-system sweep), so results are
cached at two levels:

* an in-process dictionary keyed by the *complete* run configuration
  (:class:`RunConfig`), and
* a persistent on-disk **result store** (:mod:`repro.store`) under
  ``.repro_cache/`` (override with ``REPRO_CACHE_DIR``), so a figure
  sweep re-run in a new process costs zero simulations.  A cache
  directory the store cannot open on raises
  :class:`~repro.store.StoreInitError`; a store that opens but cannot be
  written degrades to compute-only.
  Concurrent ``run_many`` processes may share one cache directory.  They
  do not coordinate: each simulates its own misses, so two may both run
  a cell, and both then store the same bytes.

Cache keys are content-addressed: a SHA-256 over every field that can
change a simulation's outcome — workload, system, the full
:class:`~repro.sim.config.HTMConfig`, threads, seed, scale, and
``max_events`` — plus :data:`SCHEMA_VERSION` (bump on serialization
changes) and a fingerprint of the package's source code, so stale results
can never survive a code change.

:func:`run_many` fans a batch of configurations out over a
``ProcessPoolExecutor`` (``REPRO_WORKERS`` processes, default 1 = serial)
in chunks of configs, deduplicating identical configs before dispatch;
each config gets at most two attempts, and a second failure surfaces the
offending configuration.

Environment knobs:

* ``REPRO_SCALE`` — global input-scale factor for benches (default 0.4).
  Larger values approach the paper's input sizes at a linear cost in host
  time; every figure's *shape* is stable across scales.
* ``REPRO_THREADS`` — simulated core/thread count (default 16, Table I).
* ``REPRO_SEED`` — workload RNG seed (default 1).
* ``REPRO_WORKERS`` — worker processes for :func:`run_many` (default 1).
* ``REPRO_CACHE_DIR`` — disk cache location (default ``.repro_cache``).
* ``REPRO_NO_CACHE`` — set to ``1`` to disable the disk cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from .. import store as store_pkg
from ..obs import telemetry as fleet
from ..sim.config import HTMConfig, table2_config
from ..systems.spec import ForwardClass, SystemSpec, get_spec
from ..sim.results import SimulationResult
from ..sim.simulator import Simulator
from ..workloads.base import make_workload

#: Bump when the meaning of cached payloads changes (serialization layout,
#: result semantics); old disk entries then miss and re-run.
SCHEMA_VERSION = 1

#: Event bound used by the bench sweeps (tighter than the library default:
#: a figure cell that livelocks should fail fast).
DEFAULT_MAX_EVENTS = 40_000_000

#: ``progress(done, total, cfg, source)``, called once per config of a
#: batch as it completes; ``source`` is its manifest entry's source.
ProgressFn = Callable[[int, int, "RunConfig", str], None]


def bench_scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "0.4"))


def bench_threads() -> int:
    return int(os.environ.get("REPRO_THREADS", "16"))


def bench_seed() -> int:
    return int(os.environ.get("REPRO_SEED", "1"))


def default_workers() -> int:
    return max(1, int(os.environ.get("REPRO_WORKERS", "1")))


# ----------------------------------------------------------------------
# Run configuration and content-addressed keys.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunConfig:
    """Everything that determines one simulation's outcome."""

    workload: str
    htm: HTMConfig
    threads: int
    seed: int
    scale: float
    max_events: int = DEFAULT_MAX_EVENTS
    #: Cycle width for the run's IntervalMetrics time series (``None``
    #: keeps the instrumentation bus silent).  Part of the cache key: an
    #: intervals-bearing result is a different payload.
    metrics_window: Optional[int] = None

    @classmethod
    def make(
        cls,
        workload: str,
        system: "SystemSpec | str",
        *,
        htm: Optional[HTMConfig] = None,
        threads: Optional[int] = None,
        seed: Optional[int] = None,
        scale: Optional[float] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
        metrics_window: Optional[int] = None,
    ) -> "RunConfig":
        """Build a config, filling unset fields from the bench defaults.

        ``system`` accepts a registered name or a :class:`SystemSpec`; a
        passed ``htm`` must be configured for that system.
        """
        system = get_spec(system)
        if htm is None:
            htm = table2_config(system)
        elif htm.system.name != system.name:
            raise ValueError(
                f"htm is configured for {htm.system.name!r}, "
                f"not {system.name!r}"
            )
        return cls(
            workload=workload,
            htm=htm,
            threads=threads if threads is not None else bench_threads(),
            seed=seed if seed is not None else bench_seed(),
            scale=scale if scale is not None else bench_scale(),
            max_events=max_events,
            metrics_window=metrics_window,
        )

    @property
    def system(self) -> SystemSpec:
        """The simulated system: the one ``htm`` is configured for."""
        return self.htm.system

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-stable representation (used for hashing).

        Every ``HTMConfig`` field is a scalar or an enum but ``system``,
        which becomes its name: a shallow walk gives ``asdict``'s dict
        without deep-copying the nested ``SystemSpec``."""
        htm = {f.name: getattr(self.htm, f.name) for f in dataclasses.fields(self.htm)}
        htm["system"] = self.htm.system.name
        if self.htm.forward_class is not None:
            htm["forward_class"] = self.htm.forward_class.value
        return {
            "workload": self.workload,
            "system": self.system.name,
            "htm": htm,
            "threads": self.threads,
            "seed": self.seed,
            "scale": self.scale,
            "max_events": self.max_events,
            "metrics_window": self.metrics_window,
        }

    def key(self) -> str:
        """Content-addressed cache key covering every field plus the
        schema version and the package source fingerprint."""
        payload = json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "code": _code_fingerprint(),
                **self.to_dict(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """One line naming every field of the config: each ``HTMConfig``
        field that differs from the system's Table II configuration is
        appended, so distinct configs never print alike."""
        text = (
            f"{self.workload}/{self.system.name} "
            f"threads={self.threads} seed={self.seed} scale={self.scale} "
            f"max_events={self.max_events}"
        )
        if self.metrics_window is not None:
            text += f" metrics_window={self.metrics_window}"
        table2 = table2_config(self.system)
        for f in dataclasses.fields(self.htm):
            value = getattr(self.htm, f.name)
            if value != getattr(table2, f.name):
                if isinstance(value, ForwardClass):
                    value = value.value
                text += f" {f.name}={value}"
        return text


_CODE_FINGERPRINT: Optional[str] = None


def _code_fingerprint() -> str:
    """SHA-256 over the package's ``*.py`` source files.

    Any edit to the simulator invalidates every disk-cache entry, so a
    cached result can never silently disagree with the current code.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(path.read_bytes())
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


# ----------------------------------------------------------------------
# Cache configuration and the batch manifest.
# ----------------------------------------------------------------------
_CACHE: Dict[str, SimulationResult] = {}
_cache_dir_override: Optional[str] = None
_disk_cache_override: Optional[bool] = None
_default_progress: Optional["ProgressFn"] = None


def configure(
    *,
    cache_dir: Optional[str] = None,
    disk_cache: Optional[bool] = None,
    progress: Optional["ProgressFn"] = None,
) -> None:
    """Override the env-derived cache settings (CLI flags, conftest).

    ``progress`` installs a default callback used by every ``run_many``
    call that does not pass its own — this is how the CLI gets progress
    out of figure prefetches that it does not invoke directly.
    """
    global _cache_dir_override, _disk_cache_override, _default_progress
    if cache_dir is not None:
        _cache_dir_override = cache_dir
    if disk_cache is not None:
        _disk_cache_override = disk_cache
    if progress is not None:
        _default_progress = progress


def cache_dir() -> Path:
    if _cache_dir_override is not None:
        return Path(_cache_dir_override)
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def disk_cache_enabled() -> bool:
    if _disk_cache_override is not None:
        return _disk_cache_override
    return os.environ.get("REPRO_NO_CACHE", "") not in ("1", "true", "yes")


@dataclass
class ManifestEntry:
    """One configuration's fate in a :func:`run_many` batch."""

    config: RunConfig
    #: Where the result came from: ``"memory"`` (the in-process cache),
    #: ``"disk"`` (the result store) or ``"run"`` (executed).
    source: str
    seconds: float  # wall-time: simulation for "run", lookup otherwise
    #: Forensic digest (``ForensicReport.digest()``) when the batch ran
    #: with ``forensics=True`` and this config actually executed; cache
    #: hits stay ``None`` — the cache stores results, not event streams.
    forensics: Optional[Dict[str, object]] = None
    #: Worker-measured resource accounting for configs that executed
    #: (``None`` for cache hits): pid, started_unix, wall/CPU seconds,
    #: peak RSS, events simulated, and events/sec.  Measured inside the
    #: worker process by :func:`_worker_resources`.
    resources: Optional[Dict[str, object]] = None


@dataclass
class RunManifest:
    """Per-config wall-times and cache accounting for one batch: the
    runner's only tally.

    Populated by :func:`run_many`; the CLI reads it back through
    :func:`last_manifest` to print elapsed times next to progress lines
    and a closing ``N cached / M run`` summary.
    """

    entries: List[ManifestEntry] = field(default_factory=list)

    @property
    def cached(self) -> int:
        """Entries served from memory or disk."""
        return sum(1 for e in self.entries if e.source != "run")

    @property
    def executed(self) -> int:
        return sum(1 for e in self.entries if e.source == "run")

    @property
    def total_seconds(self) -> float:
        return sum(e.seconds for e in self.entries)

    @property
    def events_simulated(self) -> int:
        return sum(
            int(e.resources.get("events", 0))
            for e in self.entries
            if e.resources
        )

    def record(
        self,
        config: RunConfig,
        source: str,
        seconds: float,
        forensics: Optional[Dict[str, object]] = None,
        resources: Optional[Dict[str, object]] = None,
    ) -> None:
        self.entries.append(
            ManifestEntry(config, source, seconds, forensics, resources)
        )

    def entry_for(self, cfg: RunConfig) -> Optional[ManifestEntry]:
        """Most recent entry for ``cfg`` (identity, then equality)."""
        for entry in reversed(self.entries):
            if entry.config is cfg or entry.config == cfg:
                return entry
        return None

    def summary(self) -> str:
        return (
            f"{self.cached} cached / {self.executed} run "
            f"in {self.total_seconds:.2f}s simulation wall-time"
        )


_LAST_MANIFEST: Optional[RunManifest] = None


def last_manifest() -> Optional[RunManifest]:
    """Manifest of the most recent :func:`run_many` call (live object:
    it fills in while the batch is still running)."""
    return _LAST_MANIFEST


def clear_cache() -> None:
    """Drop the in-process cache (the disk cache is left untouched)."""
    _CACHE.clear()


def cache_size() -> int:
    return len(_CACHE)


# ----------------------------------------------------------------------
# Disk cache: everything persistent goes through the result store
# (``repro.store``), one shared instance per cache directory.
# ----------------------------------------------------------------------
def result_key(key: str) -> str:
    """Store key for one simulation result (``result/<sha256>``)."""
    return f"result/{key}"


def result_store() -> "store_pkg.ResultStore":
    """The shared store instance over the current cache directory."""
    return store_pkg.store_for(cache_dir())


def _decode_result(doc: Dict[str, object]) -> SimulationResult:
    return SimulationResult.from_dict(doc["result"])


def _disk_hit(key: str) -> Optional[SimulationResult]:
    """The stored result for ``key``, promoted to the in-process cache;
    ``None`` on a miss or an unreadable entry."""
    result = result_store().load(result_key(key), SCHEMA_VERSION, _decode_result)
    if result is not None:
        _CACHE[key] = result
    return result


def _store(cfg: RunConfig, key: str, result: SimulationResult) -> None:
    _CACHE[key] = result
    if disk_cache_enabled():
        result_store().save(
            result_key(key),
            {
                "schema": SCHEMA_VERSION,
                "config": cfg.to_dict(),
                "result": result.to_dict(),
            },
        )


# ----------------------------------------------------------------------
# Execution.
# ----------------------------------------------------------------------
def simulate(
    cfg: RunConfig, *subscribers: Callable[..., None]
) -> SimulationResult:
    """Run the simulation ``cfg`` describes, fresh, with each of
    ``subscribers`` on its probe bus.

    The only place a :class:`RunConfig` becomes a
    :class:`~repro.sim.simulator.Simulator`.  Subscribers only read
    events, so they never change the result.
    """
    wl = make_workload(
        cfg.workload, threads=cfg.threads, seed=cfg.seed, scale=cfg.scale
    )
    sim = Simulator(wl, htm=cfg.htm)
    for subscriber in subscribers:
        sim.probe.subscribe(subscriber)
    return sim.run(
        max_events=cfg.max_events, metrics_window=cfg.metrics_window
    )


#: What one executed config returns from its worker: the result, the
#: successful attempt's wall-time, the optional forensic digest, and the
#: worker-side resource sample.
ExecOutcome = Tuple[
    SimulationResult, float, Optional[Dict[str, object]], Dict[str, object]
]


def _worker_resources(
    result: SimulationResult,
    *,
    started_unix: float,
    wall_seconds: float,
    cpu_seconds: float,
) -> Dict[str, object]:
    """Resource sample measured inside the worker process.

    Plain dict of primitives so it travels through worker-pool pickling;
    folded into the batch's :class:`ManifestEntry` and, when a telemetry
    session is installed, into the per-lane ``execute`` spans.
    """
    try:
        import resource

        rss: Optional[int] = int(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )
        if sys.platform == "darwin":  # pragma: no cover - linux CI
            rss //= 1024  # macOS reports bytes, Linux KiB
    except ImportError:  # pragma: no cover - non-POSIX
        rss = None
    return {
        "pid": os.getpid(),
        "started_unix": round(started_unix, 6),
        "wall_seconds": round(wall_seconds, 6),
        "cpu_seconds": round(cpu_seconds, 6),
        "peak_rss_kb": rss,
        "events": result.events,
        "events_per_sec": (
            round(result.events / wall_seconds, 3) if wall_seconds > 0 else 0.0
        ),
    }


def _execute_timed(cfg: RunConfig, forensics: bool = False) -> ExecOutcome:
    """:func:`simulate` plus wall-time and resource accounting, measured
    inside the worker process (the pool's entry point).
    ``forensics=True`` attaches a transaction ledger and returns the
    run's forensic digest alongside — a plain dict, so it travels through
    the worker-pool pickling unchanged."""
    if forensics:
        from ..analysis.forensics import collect_forensics
    started = time.time()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if forensics:
        result, report = collect_forensics(cfg)
    else:
        result, report = simulate(cfg), None
    wall = time.perf_counter() - t0
    resources = _worker_resources(
        result,
        started_unix=started,
        wall_seconds=wall,
        cpu_seconds=time.process_time() - cpu0,
    )
    return result, wall, report.digest() if forensics else None, resources


class _RemoteTraceback(Exception):
    """A pool worker's traceback text, chained as the ``__cause__`` of
    the exception it belongs to, as ``concurrent.futures`` chains a
    failed task's."""

    def __str__(self) -> str:
        return self.args[0]


class _Failed:
    """A config's exception in its chunk's outcome list.  Pickled back
    from a pool worker, it keeps the worker's traceback text as the
    exception's ``__cause__``."""

    __slots__ = ("exc",)

    def __init__(self, exc: Exception):
        self.exc = exc

    def __reduce__(self):
        exc = self.exc
        text = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        return _failed_in_worker, (exc, text)


def _failed_in_worker(exc: Exception, text: str) -> _Failed:
    exc.__cause__ = _RemoteTraceback(text)
    return _Failed(exc)


def _execute_chunk(
    cfgs: List[RunConfig], forensics: bool
) -> List["ExecOutcome | _Failed"]:
    """The executor's entry point: :func:`_execute_timed` for each config
    of a chunk, one outcome per config, in order.  A config that raises
    gets a :class:`_Failed` in its slot and the rest of the chunk still
    runs."""
    outcomes: List["ExecOutcome | _Failed"] = []
    for cfg in cfgs:
        try:
            outcomes.append(_execute_timed(cfg, forensics))
        except Exception as exc:
            outcomes.append(_Failed(exc))
    return outcomes


def run_cached(
    workload: str,
    system: "SystemSpec | str",
    *,
    htm: Optional[HTMConfig] = None,
    threads: Optional[int] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> SimulationResult:
    """Run (or fetch) one simulation with bench defaults: a one-config
    :func:`run_many` batch."""
    cfg = RunConfig.make(
        workload,
        system,
        htm=htm,
        threads=threads,
        seed=seed,
        scale=scale,
        max_events=max_events,
    )
    return run_many([cfg])[0]


# ----------------------------------------------------------------------
# Parallel fan-out.
# ----------------------------------------------------------------------
def _notify(
    progress: Optional[ProgressFn],
    done: int,
    total: int,
    cfg: RunConfig,
    source: str,
) -> None:
    if progress is not None:
        progress(done, total, cfg, source)


class _InProcess(Executor):
    """Executor that runs each task at submit time, in this process.
    Its one task, :func:`_execute_chunk`, returns a config's exception in
    that config's slot, so the task itself never raises one."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


_IN_PROCESS = _InProcess()


def run_many(
    configs: Iterable[RunConfig],
    *,
    workers: Optional[int] = None,
    use_cache: bool = True,
    progress: Optional[ProgressFn] = None,
    forensics: bool = False,
) -> List[SimulationResult]:
    """Run a batch of configurations, in parallel when ``workers > 1``.

    Identical configs are deduplicated before dispatch and each distinct
    simulation runs exactly once; results come back in input order.  With
    one worker (the ``REPRO_WORKERS`` default) or one miss, everything
    runs in-process, one config at a time; otherwise every miss is queued
    on a process pool at once, in chunks: each takes
    ``ceil(remaining / (4 * workers))`` of the configs still queued, so
    the chunks shrink to one config toward the end of the queue.  Each
    config gets at most two attempts: a failed first attempt is
    resubmitted, and a second failure raises with the offending
    configuration.  A worker that dies hard (a broken pool) counts as a
    failed attempt for every config of every chunk in flight, and the
    rest of the batch runs in-process.

    ``forensics=True`` attaches a transaction ledger to every simulation
    that actually executes and records each run's forensic digest on its
    :class:`ManifestEntry` (cache hits have no event stream, so their
    entries carry no digest; pass ``use_cache=False`` for full coverage).
    """
    global _LAST_MANIFEST
    configs = list(configs)
    if progress is None:
        progress = _default_progress
    if workers is None:
        workers = default_workers()
    workers = max(1, min(workers, os.cpu_count() or 1))
    manifest = RunManifest()
    _LAST_MANIFEST = manifest
    # Batch telemetry: the shared no-op recorder when no session is
    # installed (the fleet-level analogue of an unsubscribed Probe).
    batch = fleet.for_run_many()

    # Deduplicate, preserving first-occurrence order.
    keys = [cfg.key() for cfg in configs]
    unique: Dict[str, RunConfig] = {}
    for key, cfg in zip(keys, configs):
        unique.setdefault(key, cfg)
    batch.open(configs=len(configs), unique=len(unique), workers=workers)
    store = result_store() if use_cache and disk_cache_enabled() else None

    results: Dict[str, SimulationResult] = {}
    failed_once: set = set()  # keys whose first attempt failed
    total, done = len(unique), 0

    def _hit(key, cfg, result, seconds, layer):
        """The one site that records a cache hit from ``layer``
        (``memory`` or ``disk``)."""
        nonlocal done
        results[key] = result
        done += 1
        manifest.record(cfg, layer, seconds)
        batch.probe(cfg, key, outcome="hit", layer=layer, seconds=seconds)
        _notify(progress, done, total, cfg, layer)

    def _complete(key, cfg, outcome, retried):
        """The one site that records and persists an executed run."""
        nonlocal done
        result, seconds, digest, resources = outcome
        results[key] = result
        done += 1
        manifest.record(cfg, "run", seconds, forensics=digest, resources=resources)
        batch.finished(cfg, key, resources, retried=retried)
        if use_cache:
            t0 = time.perf_counter()
            _store(cfg, key, result)
            batch.stored(cfg, key, time.perf_counter() - t0)
        _notify(progress, done, total, cfg, "run")

    queue: Deque[Tuple[str, RunConfig]] = deque()  # misses awaiting dispatch
    pool: Optional[ProcessPoolExecutor] = None
    try:
        for key, cfg in unique.items():
            if use_cache:
                t0 = time.perf_counter()
                layer, hit = "memory", _CACHE.get(key)
                if hit is None and store is not None:
                    layer, hit = "disk", _disk_hit(key)
                seconds = time.perf_counter() - t0
                if hit is not None:
                    _hit(key, cfg, hit, seconds, layer)
                    continue
                batch.probe(cfg, key, outcome="miss", layer="none",
                            seconds=seconds)
            queue.append((key, cfg))

        if workers > 1 and len(queue) > 1:
            pool = ProcessPoolExecutor(max_workers=min(workers, len(queue)))
        executor: Executor = _IN_PROCESS if pool is None else pool
        pending: Dict[Future, List[Tuple[str, RunConfig]]] = {}
        while queue or pending:
            # In-process runs one config at a time.  A pool takes every
            # queued config at once, so workers never wait on the parent,
            # in chunks that shrink toward the end of the queue, so the
            # last tasks are single configs and the workers end together.
            while queue and (executor is pool or not pending):
                size = -(-len(queue) // (4 * workers)) if executor is pool else 1
                chunk = [queue.popleft() for _ in range(size)]
                for key, cfg in chunk:
                    if key not in failed_once:  # a retry nests under its submit
                        batch.submitted(cfg, key)
                cfgs = [cfg for _, cfg in chunk]
                try:
                    future = executor.submit(_execute_chunk, cfgs, forensics)
                except BrokenProcessPool:  # broke before taking this chunk
                    executor = _IN_PROCESS
                    future = executor.submit(_execute_chunk, cfgs, forensics)
                pending[future] = chunk
            finished, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                chunk = pending.pop(future)
                try:
                    outcomes = future.result()
                except Exception as exc:
                    if isinstance(exc, BrokenProcessPool):
                        # A worker died hard: every config in flight lost
                        # an attempt, and the rest of the batch runs here.
                        executor = _IN_PROCESS
                    outcomes = [_Failed(exc)] * len(chunk)
                for (key, cfg), outcome in zip(chunk, outcomes):
                    if not isinstance(outcome, _Failed):
                        _complete(key, cfg, outcome, key in failed_once)
                        continue
                    exc = outcome.exc
                    batch.failed(cfg, key, exc)
                    if key in failed_once:
                        raise RuntimeError(
                            "simulation failed twice for config "
                            f"[{cfg.describe()}]: {exc}"
                        ) from exc
                    failed_once.add(key)
                    queue.appendleft((key, cfg))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    batch.close(manifest)
    return [results[key] for key in keys]
