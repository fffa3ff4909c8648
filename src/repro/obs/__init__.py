"""Observability: the per-simulator instrumentation bus and its subscribers.

``repro.obs`` is the cross-cutting tracing/metrics layer.  The machine
components (:class:`~repro.sim.core.Core`,
:class:`~repro.net.network.Crossbar`, :class:`~repro.mem.directory.Directory`,
the L1/validation controllers, and the fallback/power paths) emit typed,
frozen :mod:`~repro.obs.events` into a per-simulator
:class:`~repro.obs.probe.Probe`; emission is zero-cost while no
subscriber is attached.

Shipped subscribers:

* :class:`~repro.obs.tracer.Tracer` — filtered in-memory event log;
* :class:`~repro.obs.interval.IntervalMetrics` — fixed-window time
  series, serialized into :class:`~repro.sim.results.SimulationResult`;
* :class:`~repro.obs.trace_export.JsonlTraceWriter` /
  :class:`~repro.obs.trace_export.ChromeTraceExporter` — on-disk traces
  (JSONL, Perfetto-loadable Chrome ``trace_event``);
* :class:`~repro.obs.ledger.TxLedger` — per-attempt lifecycle ledger,
  the substrate for causal abort attribution
  (:func:`~repro.obs.attribution.attribute_aborts`), wasted-work
  accounting (:class:`~repro.obs.ledger.WastedWork`) behind
  ``repro inspect``, and forwarding-chain reconstruction
  (:func:`~repro.obs.chains.render_chains`) behind
  ``repro trace --chains``.

Runs built from a :class:`~repro.experiments.runner.RunConfig` get their
subscribers through :func:`~repro.experiments.runner.simulate`.

One level up, :mod:`~repro.obs.telemetry` watches the *fleet* instead of
one simulator: run-level spans for every ``run_many`` batch, with
per-run resource accounting on each ``execute`` span.  Same contract:
zero cost while no session is installed.

See ``docs/OBSERVABILITY.md`` for the workflow.
"""

from .attribution import (
    CAUSE_KINDS,
    AttributedAbort,
    AttributionReport,
    Cascade,
    attribute_aborts,
)
from .chains import Chain, link_chains, render_chains
from .events import (
    EVENT_TYPES,
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
from .interval import DEFAULT_WINDOW, IntervalMetrics, timeline_rows
from .ledger import (
    WASTED_WORK_BUCKETS,
    FallbackSpan,
    ForwardEdge,
    TxAttempt,
    TxLedger,
    WastedWork,
)
from .probe import Probe
from .telemetry import (
    Span,
    TelemetrySession,
    current_session,
    install,
    session_scope,
    uninstall,
)
from .trace_export import ChromeTraceExporter, JsonlTraceWriter
from .tracer import TraceEvent, Tracer

__all__ = [
    "Abort",
    "AttributedAbort",
    "AttributionReport",
    "CAUSE_KINDS",
    "Cascade",
    "Chain",
    "ChromeTraceExporter",
    "Commit",
    "DEFAULT_WINDOW",
    "DirForward",
    "DirInvRound",
    "EVENT_TYPES",
    "FallbackAcquire",
    "FallbackCommit",
    "FallbackSpan",
    "ForwardEdge",
    "IntervalMetrics",
    "JsonlTraceWriter",
    "MsgSent",
    "PicUpdate",
    "PowerElevate",
    "Probe",
    "ProbeEvent",
    "Span",
    "SpecForward",
    "TelemetrySession",
    "TraceEvent",
    "Tracer",
    "TxAttempt",
    "TxBegin",
    "TxLedger",
    "ValidationMismatch",
    "ValidationOk",
    "ValidationStart",
    "VsbDrain",
    "VsbInsert",
    "WASTED_WORK_BUCKETS",
    "WastedWork",
    "attribute_aborts",
    "current_session",
    "install",
    "link_chains",
    "render_chains",
    "session_scope",
    "timeline_rows",
    "uninstall",
]
