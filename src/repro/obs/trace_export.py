"""Trace export: JSONL event streams and Chrome ``trace_event`` files.

Two exporters ride the instrumentation bus:

* :class:`JsonlTraceWriter` streams every probe event as one JSON object
  per line — greppable, diffable, and trivially parseable (each line is
  ``event.to_dict()`` exactly).

* :class:`ChromeTraceExporter` buffers events and writes the Chrome
  ``trace_event`` JSON format (the ``{"traceEvents": [...]}`` object
  form), loadable in Perfetto / ``chrome://tracing``.  Layout: one track
  (thread) per simulated core carrying transaction-attempt slices plus
  instant markers, and one extra *directory* track for directory-sourced
  coherence traffic.  Timestamps are simulated cycles, reported as
  microseconds (1 cycle = 1 us) so Perfetto's zoom levels behave.
"""

from __future__ import annotations

import json
import logging
from typing import IO, Dict, List, Optional, Union

from .events import (
    Abort,
    Commit,
    DirForward,
    DirInvRound,
    FallbackAcquire,
    FallbackCommit,
    MsgSent,
    PicUpdate,
    PowerElevate,
    ProbeEvent,
    SpecForward,
    TxBegin,
    ValidationMismatch,
    ValidationOk,
    ValidationStart,
    VsbDrain,
    VsbInsert,
)

_DIRECTORY = -1

#: Perfetto thread id used for the directory track (cores use their id).
DIRECTORY_TRACK = 9999

#: pid shared by every track (the whole machine is one "process").
TRACE_PID = 1


class JsonlTraceWriter:
    """Probe subscriber writing one JSON object per event per line."""

    def __init__(self, destination: Union[str, IO[str]]):
        if isinstance(destination, str):
            self._file: IO[str] = open(destination, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = destination
            self._owns_file = False
        self.events_written = 0

    def __call__(self, ev: ProbeEvent) -> None:
        self._file.write(json.dumps(ev.to_dict(), sort_keys=True))
        self._file.write("\n")
        self.events_written += 1

    def close(self) -> None:
        self._file.flush()
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ChromeTraceExporter:
    """Probe subscriber producing a Perfetto-loadable Chrome trace."""

    def __init__(self) -> None:
        self._events: List[Dict[str, object]] = []
        #: core -> cycle of the currently open transaction slice.
        self._open_tx: Dict[int, int] = {}
        #: core -> cycle of the currently open fallback-serialized slice.
        self._open_fb: Dict[int, int] = {}
        #: event kind -> count of events with no rendering rule.
        self._dropped: Dict[str, int] = {}
        self._cores_seen: set = set()
        self._directory_seen = False
        self._last_cycle = 0

    # ------------------------------------------------------------------
    def _add(
        self,
        *,
        name: str,
        ph: str,
        ts: int,
        tid: int,
        args: Optional[Dict[str, object]] = None,
        cat: str = "sim",
    ) -> None:
        entry: Dict[str, object] = {
            "name": name,
            "ph": ph,
            "ts": ts,
            "pid": TRACE_PID,
            "tid": tid,
            "cat": cat,
        }
        if ph == "i":
            entry["s"] = "t"  # thread-scoped instant
        if args:
            entry["args"] = args
        self._events.append(entry)

    @property
    def events_recorded(self) -> int:
        """Trace entries buffered so far (excluding metadata)."""
        return len(self._events)

    def _track(self, core: int) -> int:
        if core == _DIRECTORY:
            self._directory_seen = True
            return DIRECTORY_TRACK
        self._cores_seen.add(core)
        return core

    def _instant(self, name: str, cycle: int, core: int, **args) -> None:
        self._add(name=name, ph="i", ts=cycle, tid=self._track(core), args=args or None)

    # ------------------------------------------------------------------
    def __call__(self, ev: ProbeEvent) -> None:
        self._last_cycle = max(self._last_cycle, ev.cycle)
        if isinstance(ev, TxBegin):
            tid = self._track(ev.core)
            # A begin while a slice is open (shouldn't happen) closes it.
            if ev.core in self._open_tx:
                self._add(name="tx", ph="E", ts=ev.cycle, tid=tid)
            self._open_tx[ev.core] = ev.cycle
            self._add(
                name="tx", ph="B", ts=ev.cycle, tid=tid,
                args={"epoch": ev.epoch, "power": ev.power},
            )
        elif isinstance(ev, Commit):
            self._finish_tx(ev.core, ev.cycle, "commit", power=ev.power)
        elif isinstance(ev, Abort):
            self._finish_tx(ev.core, ev.cycle, "abort", reason=ev.reason)
            if ev.reason == "capacity":
                self._instant("capacity-abort", ev.cycle, ev.core)
        elif isinstance(ev, SpecForward):
            self._instant(
                "forward", ev.cycle, ev.producer,
                consumer=ev.consumer, block=hex(ev.block), pic=ev.pic,
            )
        elif isinstance(ev, ValidationStart):
            self._instant("validate", ev.cycle, ev.core, block=hex(ev.block))
        elif isinstance(ev, ValidationOk):
            self._instant("validate-ok", ev.cycle, ev.core, block=hex(ev.block))
        elif isinstance(ev, ValidationMismatch):
            self._instant("validate-mismatch", ev.cycle, ev.core, block=hex(ev.block))
        elif isinstance(ev, VsbInsert):
            self._instant(
                "vsb-insert", ev.cycle, ev.core,
                block=hex(ev.block), occupancy=ev.occupancy,
            )
        elif isinstance(ev, VsbDrain):
            self._instant(
                "vsb-drain", ev.cycle, ev.core,
                block=hex(ev.block), occupancy=ev.occupancy,
            )
        elif isinstance(ev, PicUpdate):
            self._instant("pic", ev.cycle, ev.core, value=ev.value, source=ev.source)
        elif isinstance(ev, FallbackAcquire):
            tid = self._track(ev.core)
            # An acquire while a fallback slice is open closes it first.
            if ev.core in self._open_fb:
                self._add(
                    name="fallback", ph="E", ts=ev.cycle, tid=tid,
                    args={"outcome": "reacquired"},
                )
            self._open_fb[ev.core] = ev.cycle
            self._add(name="fallback", ph="B", ts=ev.cycle, tid=tid)
        elif isinstance(ev, FallbackCommit):
            tid = self._track(ev.core)
            if ev.core in self._open_fb:
                del self._open_fb[ev.core]
                self._add(
                    name="fallback", ph="E", ts=ev.cycle, tid=tid,
                    args={"outcome": "commit", "label": ev.label},
                )
            else:
                # Commit without a recorded acquire: mark it instead.
                self._instant(
                    "fallback-commit", ev.cycle, ev.core, label=ev.label
                )
        elif isinstance(ev, PowerElevate):
            self._instant("power-token", ev.cycle, ev.core)
        elif isinstance(ev, MsgSent):
            self._instant(
                f"msg:{ev.msg_kind}", ev.cycle, ev.src,
                dst=ev.dst, block=hex(ev.block),
            )
        elif isinstance(ev, DirForward):
            self._instant(
                "dir-forward", ev.cycle, _DIRECTORY,
                block=hex(ev.block), owner=ev.owner, requester=ev.requester,
            )
        elif isinstance(ev, DirInvRound):
            self._instant(
                "dir-inv-round", ev.cycle, _DIRECTORY,
                block=hex(ev.block), sharers=ev.sharers,
            )
        else:
            # Unknown kind (e.g. an event added after this exporter):
            # count it so finalize() can warn instead of dropping silently.
            self._dropped[ev.kind] = self._dropped.get(ev.kind, 0) + 1

    def _finish_tx(self, core: int, cycle: int, outcome: str, **args) -> None:
        tid = self._track(core)
        args["outcome"] = outcome
        if core in self._open_tx:
            del self._open_tx[core]
            self._add(name="tx", ph="E", ts=cycle, tid=tid, args=args)
        else:
            # Commit/abort without a recorded begin (e.g. the attempt died
            # during lock subscription): mark it as an instant.
            self._instant(outcome, cycle, core, **args)

    # ------------------------------------------------------------------
    def finalize(self) -> Dict[str, object]:
        """Close dangling slices and return the trace_event payload."""
        # Per core, later-started slices must close first so B/E pairs
        # stay properly nested (a tx opened inside a fallback section
        # ends before the fallback slice does, and vice versa).
        dangling = [
            (core, start, "tx") for core, start in self._open_tx.items()
        ] + [
            (core, start, "fallback")
            for core, start in self._open_fb.items()
        ]
        for core, _start, name in sorted(
            dangling, key=lambda item: (item[0], -item[1])
        ):
            self._add(
                name=name, ph="E", ts=self._last_cycle,
                tid=self._track(core), args={"outcome": "unfinished"},
            )
        self._open_tx.clear()
        self._open_fb.clear()
        if self._dropped:
            logging.getLogger(__name__).warning(
                "chrome trace export dropped %d event(s) with no "
                "rendering rule: %s",
                sum(self._dropped.values()),
                ", ".join(
                    f"{kind} x{count}"
                    for kind, count in sorted(self._dropped.items())
                ),
            )
        meta: List[Dict[str, object]] = [
            {
                "name": "process_name", "ph": "M", "pid": TRACE_PID, "tid": 0,
                "args": {"name": "repro simulator"},
            }
        ]
        for core in sorted(self._cores_seen):
            meta.append(
                {
                    "name": "thread_name", "ph": "M", "pid": TRACE_PID,
                    "tid": core, "args": {"name": f"core {core}"},
                }
            )
        if self._directory_seen:
            meta.append(
                {
                    "name": "thread_name", "ph": "M", "pid": TRACE_PID,
                    "tid": DIRECTORY_TRACK, "args": {"name": "directory"},
                }
            )
        return {
            "traceEvents": meta + self._events,
            "displayTimeUnit": "ms",
            "otherData": {"time_unit": "1 trace us = 1 simulated cycle"},
        }

    def write(self, destination: Union[str, IO[str]]) -> None:
        payload = self.finalize()
        if isinstance(destination, str):
            with open(destination, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        else:
            json.dump(payload, destination)
