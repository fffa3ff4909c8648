"""The per-simulator instrumentation hub.

One :class:`Probe` is created by each
:class:`~repro.sim.simulator.Simulator` and handed (by reference) to the
components that emit events — there is no global state, so two
simulators in the same process (or tracing resumed after an exception)
can never cross-talk, unlike the retired class-attribute monkey-patching
``Tracer``.

Emission is *zero-cost when nobody listens*: every emit site guards the
event construction with ``if probe._subscribers: ...``, and an
unsubscribed probe's tuple is empty, so the hot path pays one attribute
load and one branch.

Example::

    sim = Simulator(workload)
    sim.probe.subscribe(print)       # stream every event
    sim.run()
"""

from __future__ import annotations

from typing import Callable, Tuple

from .events import ProbeEvent

Subscriber = Callable[[ProbeEvent], None]


class Probe:
    """Fan-out hub for typed probe events.

    The subscriber collection is a copy-on-write tuple: ``subscribe`` /
    ``unsubscribe`` build a replacement tuple, ``emit`` iterates whatever
    tuple it sees at call time.  A callback that unsubscribes itself (or
    anyone else) mid-delivery mutates only the *next* emit's view — the
    in-flight iteration keeps its snapshot — and the hot path allocates
    nothing per event (the old per-emit ``tuple(...)`` copy is gone).
    """

    __slots__ = ("_subscribers",)

    def __init__(self) -> None:
        self._subscribers: Tuple[Subscriber, ...] = ()

    def subscribe(self, fn: Subscriber) -> Subscriber:
        """Attach ``fn``; it receives every subsequent event."""
        if fn not in self._subscribers:
            self._subscribers = self._subscribers + (fn,)
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        """Detach ``fn``; unknown subscribers are ignored (idempotent)."""
        if fn in self._subscribers:
            self._subscribers = tuple(
                s for s in self._subscribers if s != fn
            )

    def emit(self, event: ProbeEvent) -> None:
        """Deliver ``event`` to every subscriber, in subscription order.

        Snapshot semantics come free from copy-on-write: the loop binds
        the current tuple once, so concurrent (un)subscription from a
        callback cannot perturb this delivery round.
        """
        for fn in self._subscribers:
            fn(event)
