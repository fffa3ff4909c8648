"""Fleet telemetry: the run-level span log.

Where the rest of :mod:`repro.obs` watches *one simulation from the
inside* (probe events at cycle granularity), this module watches *the
fleet from the outside*: every :func:`~repro.experiments.runner.run_many`
batch becomes a tree of structured spans with wall-clock timestamps and
per-run resource accounting.

:class:`TelemetrySession` is the span collector.  Spans (``run_many``,
``submit``, ``cache-probe``, ``execute``, ``retry``, ``serialize``) form
a tree; the session serializes them as JSONL (``repro-telemetry/1``) and
as a Chrome ``trace_event`` file so a whole sweep opens on one Perfetto
timeline — one track per worker process plus a scheduler track — right
next to the per-cycle simulation traces from
:mod:`~repro.obs.trace_export`.

The layer follows the :class:`~repro.obs.probe.Probe` precedent: it is
**zero-cost when no session is installed**.  The runner asks
:func:`for_run_many` for a batch recorder; with no session installed it
gets the shared :data:`NULL_BATCH` whose methods are all no-ops, and
nothing in the simulation engine ever sees telemetry at all — the hot
loops are untouched (asserted by ``tests/test_telemetry.py``).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

#: JSONL schema tag written on the session header line.
SCHEMA = "repro-telemetry/1"

#: The span vocabulary.  ``run_many`` is the root of one batch; every
#: other span nests under it (``execute``/``retry`` under ``submit``).
SPAN_NAMES = (
    "run_many",
    "submit",
    "cache-probe",
    "execute",
    "retry",
    "serialize",
)

#: pid used for every track of the fleet Chrome trace.
TRACE_PID = 2

#: tid of the scheduler track (worker lanes use 1..N).
SCHEDULER_TRACK = 0


# ----------------------------------------------------------------------
# Spans.
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed interval of a batch, in unix seconds.

    ``lane`` is ``None`` for scheduler-side spans and a 1-based worker
    lane index (one lane per worker process) for ``execute`` spans.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: Optional[float] = None
    lane: Optional[int] = None
    status: str = "open"  # "open" | "ok" | "error"
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_unix": round(self.start, 6),
            "end_unix": round(self.end, 6) if self.end is not None else None,
            "seconds": round(self.seconds, 6),
            "status": self.status,
            "attrs": self.attrs,
        }
        if self.lane is not None:
            out["lane"] = self.lane
        return out


class TelemetrySession:
    """Collects the span tree of one CLI invocation.

    One session can span several ``run_many`` batches (``repro report``
    prefetches a union sweep and then re-enters the runner per figure);
    each batch contributes its own ``run_many`` root span.
    """

    def __init__(self) -> None:
        self.started_unix = time.time()
        self.run_id = f"{int(self.started_unix * 1e6):x}-{os.getpid():x}"
        self.spans: List[Span] = []
        self._next_id = 1
        self._lanes: Dict[int, int] = {}  # worker pid -> lane index

    # -- span lifecycle -------------------------------------------------
    def begin(
        self,
        name: str,
        *,
        parent: Optional[Span] = None,
        lane: Optional[int] = None,
        **attrs,
    ) -> Span:
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            start=time.time(),
            lane=lane,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def finish(self, span: Span, *, status: str = "ok", **attrs) -> Span:
        span.end = time.time()
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        return span

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: Optional[Span] = None,
        lane: Optional[int] = None,
        status: str = "ok",
        **attrs,
    ) -> Span:
        """Record a span retroactively (e.g. a worker-measured execution
        whose timestamps travelled back with the result)."""
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            start=start,
            end=max(start, end),
            lane=lane,
            status=status,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, *, parent: Optional[Span] = None, **attrs):
        sp = self.begin(name, parent=parent, **attrs)
        try:
            yield sp
        except BaseException:
            self.finish(sp, status="error")
            raise
        self.finish(sp)

    @property
    def span_count(self) -> int:
        return len(self.spans)

    def lane_for(self, pid: int) -> int:
        """Stable 1-based lane index for a worker process id."""
        lane = self._lanes.get(pid)
        if lane is None:
            lane = len(self._lanes) + 1
            self._lanes[pid] = lane
        return lane

    # -- export ----------------------------------------------------------
    def jsonl_lines(self) -> Iterator[str]:
        header = {
            "kind": "session",
            "schema": SCHEMA,
            "run_id": self.run_id,
            "started_unix": round(self.started_unix, 6),
            "pid": os.getpid(),
        }
        yield json.dumps(header, sort_keys=True)
        for span in self.spans:
            yield json.dumps(span.to_dict(), sort_keys=True)

    def write_jsonl(self, destination) -> int:
        """Write the span log; returns the number of span lines."""
        if isinstance(destination, (str, Path)):
            with open(destination, "w", encoding="utf-8") as fh:
                return self.write_jsonl(fh)
        count = 0
        for line in self.jsonl_lines():
            destination.write(line)
            destination.write("\n")
            count += 1
        return count - 1  # header line is not a span

    def to_chrome(self) -> Dict[str, object]:
        """Chrome ``trace_event`` payload: scheduler track 0 + one track
        per worker lane, timestamps in microseconds since session start.

        Scheduler-side spans that legitimately overlap (``submit`` and
        ``retry`` windows of concurrently in-flight configs) are emitted
        as async ``b``/``e`` pairs; everything else is a complete ``X``
        slice.
        """
        t0 = self.started_unix
        now = time.time()

        def us(t: float) -> int:
            return max(0, int(round((t - t0) * 1e6)))

        entries: List[Dict[str, object]] = []
        for span in self.spans:
            args = dict(span.attrs)
            args["status"] = span.status
            start = us(span.start)
            end = us(span.end if span.end is not None else now)
            tid = SCHEDULER_TRACK if span.lane is None else span.lane
            if span.name in ("submit", "retry"):
                common = {
                    "name": span.name,
                    "cat": "sched",
                    "id": span.span_id,
                    "pid": TRACE_PID,
                    "tid": tid,
                }
                entries.append({**common, "ph": "b", "ts": start, "args": args})
                entries.append({**common, "ph": "e", "ts": end})
            else:
                entries.append(
                    {
                        "name": span.name,
                        "cat": "fleet",
                        "ph": "X",
                        "ts": start,
                        "dur": max(0, end - start),
                        "pid": TRACE_PID,
                        "tid": tid,
                        "args": args,
                    }
                )
        # Parents sort before children at equal ts (longer dur first).
        entries.sort(key=lambda e: (e["ts"], -e.get("dur", 0)))
        meta: List[Dict[str, object]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": 0,
                "args": {"name": "repro fleet"},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": SCHEDULER_TRACK,
                "args": {"name": "scheduler"},
            },
        ]
        for pid, lane in sorted(self._lanes.items(), key=lambda kv: kv[1]):
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": TRACE_PID,
                    "tid": lane,
                    "args": {"name": f"worker {pid}"},
                }
            )
        return {
            "traceEvents": meta + entries,
            "displayTimeUnit": "ms",
            "otherData": {
                "run_id": self.run_id,
                "time_unit": "1 trace us = 1 wall-clock us since session start",
            },
        }

    def write_chrome(self, destination) -> None:
        payload = self.to_chrome()
        if isinstance(destination, (str, Path)):
            with open(destination, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        else:
            json.dump(payload, destination)


# ----------------------------------------------------------------------
# Module-level session installation (the Probe-style on/off switch).
# ----------------------------------------------------------------------
_SESSION: Optional[TelemetrySession] = None


def current_session() -> Optional[TelemetrySession]:
    """The installed session, or ``None`` (telemetry off, zero cost)."""
    return _SESSION


def install(session: TelemetrySession) -> TelemetrySession:
    global _SESSION
    if _SESSION is not None:
        raise RuntimeError("a telemetry session is already installed")
    _SESSION = session
    return session


def uninstall(session: Optional[TelemetrySession] = None) -> None:
    """Remove the installed session (idempotent; ``session`` asserts
    which one the caller thinks is active)."""
    global _SESSION
    if session is not None and _SESSION is not session:
        return
    _SESSION = None


@contextmanager
def session_scope() -> Iterator[TelemetrySession]:
    session = install(TelemetrySession())
    try:
        yield session
    finally:
        uninstall(session)


# ----------------------------------------------------------------------
# The runner-facing batch recorder.
# ----------------------------------------------------------------------
class NullBatch:
    """No-op batch recorder handed out while telemetry is off.

    A shared singleton: the runner pays one module-global read and a few
    no-op method calls per *configuration* (never per engine event)."""

    __slots__ = ()

    def open(self, *, configs: int, unique: int, workers: int,
             backend: str) -> None:
        pass

    def probe(self, cfg, key: str, *, outcome: str, layer: str,
              seconds: float) -> None:
        pass

    def submitted(self, cfg, key: str) -> None:
        pass

    def finished(self, cfg, key: str, resources, *, retried: bool = False
                 ) -> None:
        pass

    def failed(self, cfg, key: str, error: BaseException) -> None:
        pass

    def stored(self, cfg, key: str, seconds: float) -> None:
        pass

    def close(self, manifest) -> None:
        pass


NULL_BATCH = NullBatch()


class RunBatch(NullBatch):
    """Span bookkeeping for one live ``run_many`` batch."""

    __slots__ = ("_session", "_root", "_submits", "_retries")

    def __init__(self, session: TelemetrySession):
        self._session = session
        self._root: Optional[Span] = None
        self._submits: Dict[str, Span] = {}
        self._retries: Dict[str, Span] = {}

    def open(self, *, configs: int, unique: int, workers: int,
             backend: str) -> None:
        self._root = self._session.begin(
            "run_many",
            configs=configs,
            unique=unique,
            workers=workers,
            backend=backend,
        )

    def probe(self, cfg, key: str, *, outcome: str, layer: str,
              seconds: float) -> None:
        now = time.time()
        self._session.add(
            "cache-probe",
            now - seconds,
            now,
            parent=self._root,
            config=cfg.describe(),
            key=key[:12],
            outcome=outcome,
            layer=layer,
        )

    def submitted(self, cfg, key: str) -> None:
        self._submits[key] = self._session.begin(
            "submit",
            parent=self._root,
            config=cfg.describe(),
            key=key[:12],
        )

    def finished(self, cfg, key: str, resources, *, retried: bool = False
                 ) -> None:
        submit = self._submits.get(key)
        parent = self._retries.get(key, submit) if retried else submit
        if resources:
            lane = self._session.lane_for(int(resources.get("pid", 0)))
            start = float(resources.get("started_unix", time.time()))
            wall = float(resources.get("wall_seconds", 0.0))
            self._session.add(
                "execute",
                start,
                start + wall,
                parent=parent,
                lane=lane,
                config=cfg.describe(),
                **{
                    k: v
                    for k, v in resources.items()
                    if k not in ("started_unix",) and v is not None
                },
            )
        retry = self._retries.pop(key, None)
        if retry is not None:
            self._session.finish(retry)
        if submit is not None:
            self._session.finish(submit)

    def failed(self, cfg, key: str, error: BaseException) -> None:
        submit = self._submits.get(key)
        parent = self._retries.get(key, submit)
        now = time.time()
        self._session.add(
            "execute",
            now,
            now,
            parent=parent,
            status="error",
            config=cfg.describe(),
            error=f"{type(error).__name__}: {error}",
        )
        if key in self._retries:
            # Second failure: the batch is about to raise.
            self._session.finish(self._retries.pop(key), status="error")
            if submit is not None:
                self._session.finish(submit, status="error")
            return
        self._retries[key] = self._session.begin(
            "retry", parent=submit, config=cfg.describe(), key=key[:12]
        )

    def stored(self, cfg, key: str, seconds: float) -> None:
        now = time.time()
        self._session.add(
            "serialize",
            now - seconds,
            now,
            parent=self._submits.get(key, self._root),
            key=key[:12],
        )

    def close(self, manifest) -> None:
        """Finish the root span with the batch's cache accounting, read
        from its :class:`~repro.experiments.runner.RunManifest`."""
        if self._root is not None:
            self._session.finish(
                self._root, cached=manifest.cached, run=manifest.executed
            )


def for_run_many() -> NullBatch:
    """Batch recorder for the installed session — or the shared no-op."""
    session = _SESSION
    if session is None:
        return NULL_BATCH
    return RunBatch(session)
