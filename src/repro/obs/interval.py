"""Time-series metrics: probe events binned into fixed cycle windows.

An :class:`IntervalMetrics` subscriber turns the event stream into a
compact per-window time series — commits, aborts by reason, speculative
forwards, peak VSB occupancy, fallback-lock acquisitions, and power-token
grants — the dynamic view that end-of-run :class:`~repro.htm.stats.HTMStats`
aggregates cannot provide.

The collector serializes to plain JSON (:meth:`to_dict` /
:meth:`from_dict`) and rides inside
:class:`~repro.sim.results.SimulationResult`, so disk-cached runs keep
their time series.  Bins are exhaustive: summing any counter over all
bins reproduces the corresponding aggregate (asserted by the test
suite).
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from .events import (
    Abort,
    Commit,
    FallbackAcquire,
    PowerElevate,
    ProbeEvent,
    SpecForward,
    VsbInsert,
)

#: Default window width, in cycles.
DEFAULT_WINDOW = 10_000


class IntervalMetrics:
    """Probe subscriber binning events into fixed cycle windows."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("window must be at least one cycle")
        self.window = window
        #: bin index -> mutable bin dict (created lazily; empty windows
        #: between active ones are materialized at serialization time).
        self._bins: Dict[int, Dict[str, object]] = {}

    # ------------------------------------------------------------------
    def _bin(self, cycle: int) -> Dict[str, object]:
        idx = cycle // self.window
        b = self._bins.get(idx)
        if b is None:
            b = {
                "start": idx * self.window,
                "commits": 0,
                "aborts": {},
                "forwards": 0,
                "vsb_peak": 0,
                "fallback_acquires": 0,
                "power_elevations": 0,
            }
            self._bins[idx] = b
        return b

    def __call__(self, ev: ProbeEvent) -> None:
        """Probe subscriber entry point."""
        if isinstance(ev, Commit):
            b = self._bin(ev.cycle)
            b["commits"] += 1
        elif isinstance(ev, Abort):
            b = self._bin(ev.cycle)
            aborts: Dict[str, int] = b["aborts"]  # type: ignore[assignment]
            aborts[ev.reason] = aborts.get(ev.reason, 0) + 1
        elif isinstance(ev, SpecForward):
            b = self._bin(ev.cycle)
            b["forwards"] += 1
        elif isinstance(ev, VsbInsert):
            b = self._bin(ev.cycle)
            if ev.occupancy > b["vsb_peak"]:  # type: ignore[operator]
                b["vsb_peak"] = ev.occupancy
        elif isinstance(ev, FallbackAcquire):
            b = self._bin(ev.cycle)
            b["fallback_acquires"] += 1
        elif isinstance(ev, PowerElevate):
            b = self._bin(ev.cycle)
            b["power_elevations"] += 1

    # ------------------------------------------------------------------
    def bins(self) -> List[Dict[str, object]]:
        """Materialized bins in time order, including empty interior
        windows (so plots see a dense axis)."""
        if not self._bins:
            return []
        lo, hi = min(self._bins), max(self._bins)
        out = []
        for idx in range(lo, hi + 1):
            b = self._bins.get(idx)
            if b is None:
                b = {
                    "start": idx * self.window,
                    "commits": 0,
                    "aborts": {},
                    "forwards": 0,
                    "vsb_peak": 0,
                    "fallback_acquires": 0,
                    "power_elevations": 0,
                }
            out.append(dict(b, aborts=dict(b["aborts"])))
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable time series (the cache payload)."""
        return {"window": self.window, "bins": self.bins()}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "IntervalMetrics":
        """Rebuild a collector from :meth:`to_dict` output."""
        self = cls(window=int(data["window"]))
        for b in data["bins"]:  # type: ignore[union-attr]
            idx = int(b["start"]) // self.window
            self._bins[idx] = {
                "start": int(b["start"]),
                "commits": int(b["commits"]),
                "aborts": {str(k): int(v) for k, v in b["aborts"].items()},
                "forwards": int(b["forwards"]),
                "vsb_peak": int(b["vsb_peak"]),
                "fallback_acquires": int(b["fallback_acquires"]),
                "power_elevations": int(b["power_elevations"]),
            }
        return self

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, int]:
        """Sums over every bin (used to cross-check the aggregates)."""
        commits = forwards = fallback = power = aborts = 0
        for b in self._bins.values():
            commits += b["commits"]  # type: ignore[operator]
            forwards += b["forwards"]  # type: ignore[operator]
            fallback += b["fallback_acquires"]  # type: ignore[operator]
            power += b["power_elevations"]  # type: ignore[operator]
            aborts += sum(b["aborts"].values())  # type: ignore[union-attr]
        return {
            "commits": commits,
            "aborts": aborts,
            "forwards": forwards,
            "fallback_acquires": fallback,
            "power_elevations": power,
        }


def timeline_rows(intervals: Mapping[str, object]) -> List[Dict[str, object]]:
    """Flatten a serialized time series into renderer-friendly rows."""
    rows = []
    for b in intervals.get("bins", []):  # type: ignore[union-attr]
        rows.append(
            {
                "start": b["start"],
                "commits": b["commits"],
                "aborts": sum(b["aborts"].values()),
                "forwards": b["forwards"],
                "vsb_peak": b["vsb_peak"],
                "fallback": b["fallback_acquires"],
                "power": b["power_elevations"],
            }
        )
    return rows
