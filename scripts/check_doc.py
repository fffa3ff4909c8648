#!/usr/bin/env python3
"""Validate a document written by ``repro``.

Usage::

    python scripts/check_doc.py KIND PATH [--min-attributed F]
                                          [--expect-entries N]

KIND is one of:

* ``store``: the ``repro cache stats --json`` document;
* ``forensics``: the ``repro inspect --json`` report;
* ``compare``: the ``repro compare --json`` A/B document;
* ``events``: the probe-event JSONL written by ``repro trace``;
* ``spans``: the fleet span log written by ``--telemetry``;
* ``chrome``: a Chrome ``trace_event`` export, from ``repro trace
  --format chrome`` or from ``--telemetry-chrome``.

Each schema is declared once, as field -> type tables (JSON ``true`` is
never a number), plus one small function per kind for the rules that
span fields: sums, nesting, parent before child.  Every schema tag and
vocabulary is imported from the module that writes it.

Every problem is listed on stderr as an ``INVALID`` line; the exit
status is 1 if there is any, else 0.  ``--min-attributed F`` (forensics)
also requires an attributed-abort fraction of at least F, and
``--expect-entries N`` (store) exactly N store entries.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import reprlib
import sys
import typing
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.forensics import (  # noqa: E402
    COMPARE_SCHEMA,
    FORENSICS_SCHEMA,
)
from repro.obs import (  # noqa: E402
    CAUSE_KINDS,
    EVENT_TYPES,
    WASTED_WORK_BUCKETS,
)
from repro.obs.telemetry import SCHEMA as TELEMETRY_SCHEMA  # noqa: E402
from repro.obs.telemetry import SPAN_NAMES  # noqa: E402
from repro.store import STORE_SCHEMA, StoreCounters  # noqa: E402

KINDS = ("store", "forensics", "compare", "events", "spans", "chrome")

#: Short reprs of offending values: nested containers print as {...}.
_short = reprlib.Repr()
_short.maxlevel = 1


class count(int):
    """Table type: a non-negative int."""


# ----------------------------------------------------------------------
# Schemas.  A type is a Python type (``float`` is any JSON number,
# ``None`` null) or a tuple of allowed types.
# ----------------------------------------------------------------------
STORE_FIELDS = {
    "schema": str,
    "root": str,
    "entries": count,
    "logical_bytes": count,
    "stored_bytes": count,
    "namespaces": dict,
    "counters": dict,
}
STORE_COUNTER_FIELDS = dict.fromkeys(StoreCounters().to_dict(), count)

#: Key namespaces of the runner, forensics and figure caches.
#: ``(flat)`` counts keys without one.
STORE_NAMESPACES = {"result", "forensics", "figure", "(flat)"}

FORENSICS_FIELDS = {
    "schema": str,
    "workload": str,
    "system": str,
    "threads": int,
    "seed": int,
    "scale": float,
    "cycles": int,
    "commits": int,
    "fallback_commits": int,
    "aborts": int,
    "attempts": int,
    "forwards": int,
    "attribution": dict,
    "wasted_work": dict,
    "gauge_mismatches": dict,
}
ATTRIBUTION_FIELDS = {
    "total_aborts": int,
    "attributed": int,
    "attributed_fraction": float,
    "breakdown": dict,
    "cascades": list,
    "chains": dict,
    "aborts": list,
}
BREAKDOWN_FIELDS = dict.fromkeys(CAUSE_KINDS, count)
ABORT_FIELDS = {"kind": str, "core": int, "epoch": int, "cycle": int}
CASCADE_FIELDS = {"root": list, "members": list, "size": int, "depth": int}
WASTED_FIELDS = {"total_cycles": int, "per_core": dict, "totals": dict}
BUCKET_FIELDS = dict.fromkeys(WASTED_WORK_BUCKETS, count)

COMPARE_FIELDS = {
    "schema": str,
    "workload": str,
    "a": dict,
    "b": dict,
    "cycles_delta": int,
    "abort_breakdown": dict,
    "wasted_totals": dict,
}
COMPARE_SIDE_FIELDS = {"system": str, "cycles": count, "aborts": count}
COMPARE_CELL_FIELDS = {"a": count, "b": count, "delta": int}

SESSION_FIELDS = {
    "kind": str,
    "schema": str,
    "run_id": str,
    "started_unix": float,
    "pid": int,
}
SPAN_FIELDS = {
    "kind": str,
    "id": int,
    "parent": (int, None),
    "name": str,
    "start_unix": float,
    "end_unix": (float, None),
    "seconds": float,
    "status": str,
    "attrs": dict,
    "lane": int,
}
SPAN_OPTIONAL = ("lane",)
SPAN_STATUSES = ("open", "ok", "error")

#: Seconds a span may stick out of its parent: worker-measured spans
#: come from another process's clock.
CLOCK_SLACK_S = 0.05

CHROME_FIELDS = {"name": str, "ph": str, "pid": int, "tid": int}
_ASYNC = {"ts": count, "cat": str, "id": int}
#: Phase -> the extra fields an event of that phase carries.
CHROME_PHASES = {
    "M": {},
    "B": {"ts": count},
    "E": {"ts": count},
    "i": {"ts": count},
    "X": {"ts": count, "dur": count},
    "b": _ASYNC,
    "e": _ASYNC,
}

#: Trace microseconds of slack in X-slice nesting: span endpoints are
#: rounded to the microsecond independently.
NESTING_SLACK_US = 5


def _event_tables() -> Dict[str, tuple]:
    """kind -> (field table, optional fields), from the event classes.

    ``Optional[T]`` fields are omitted from a line when ``None``, so
    they may be absent but, when present, must be a ``T``.
    """
    tables = {}
    for kind, cls in EVENT_TYPES.items():
        hints = typing.get_type_hints(cls)
        table: Dict[str, object] = {"kind": str}
        optional = []
        for f in dataclasses.fields(cls):
            hint = hints[f.name]
            if typing.get_origin(hint) is typing.Union:
                hint = tuple(
                    a for a in typing.get_args(hint) if a is not type(None)
                )
            table[f.name] = hint
            if f.default is None:
                optional.append(f.name)
        tables[kind] = (table, optional)
    return tables


EVENT_TABLES = _event_tables()


# ----------------------------------------------------------------------
# The type rule and the table check.
# ----------------------------------------------------------------------
def _is(value, want) -> bool:
    if isinstance(want, tuple):
        return any(_is(value, w) for w in want)
    if want is None:
        return value is None
    if isinstance(value, bool):
        return want is bool
    if want is float:
        return isinstance(value, (int, float))
    if want is count:
        return isinstance(value, int) and value >= 0
    return isinstance(value, want)


def _type_name(want) -> str:
    if isinstance(want, tuple):
        return " or ".join(_type_name(w) for w in want)
    names = {None: "null", float: "number", count: "non-negative int"}
    return names[want] if want in names else want.__name__


def _fields(obj, table, where, problems, *, optional=(), closed=False):
    """Check ``obj`` against a field -> type table, listing each missing
    or mistyped field; returns the fields that are present and typed
    right (none when ``obj`` is not an object).  ``closed`` also lists
    fields the table does not declare."""
    if not isinstance(obj, dict):
        problems.append(f"{where}: {_short.repr(obj)} is not an object")
        return {}
    good = {}
    for key, want in table.items():
        if key not in obj:
            if key not in optional:
                problems.append(f"{where}: missing {key!r}")
        elif _is(obj[key], want):
            good[key] = obj[key]
        else:
            problems.append(
                f"{where}: {key} is {_short.repr(obj[key])}, "
                f"want {_type_name(want)}"
            )
    if closed:
        extra = sorted(set(obj) - set(table))
        if extra:
            problems.append(f"{where}: undeclared fields {extra}")
    return good


def _expect(good, key, want, where, problems) -> None:
    if key in good and good[key] != want:
        problems.append(f"{where}: {key} is {good[key]!r}, want {want!r}")


def _loads(text: str):
    """``json.loads`` that, like JSON itself, has no NaN or Infinity."""
    def reject(name):
        raise ValueError(f"{name} is not a JSON value")
    return json.loads(text, parse_constant=reject)


def _json_line(raw, where, problems):
    """One JSONL line as an object, or ``None`` after listing why not."""
    if not raw.strip():
        problems.append(f"{where}: blank line")
        return None
    try:
        record = _loads(raw)
    except ValueError as exc:
        problems.append(f"{where}: not JSON ({exc})")
        return None
    if not isinstance(record, dict):
        problems.append(f"{where}: {_short.repr(record)} is not an object")
        return None
    return record


# ----------------------------------------------------------------------
# Per-kind rules.
# ----------------------------------------------------------------------
def _check_store(doc, expect_entries: Optional[int]) -> List[str]:
    problems: List[str] = []
    v = _fields(doc, STORE_FIELDS, "document", problems)
    _expect(v, "schema", STORE_SCHEMA, "document", problems)
    if "counters" in v:
        _fields(v["counters"], STORE_COUNTER_FIELDS, "counters", problems)
    if "namespaces" in v:
        namespaces = v["namespaces"]
        unknown = sorted(set(namespaces) - STORE_NAMESPACES)
        if unknown:
            problems.append(f"namespaces: unknown {unknown}")
        sizes = _fields(
            namespaces, dict.fromkeys(namespaces, int), "namespaces",
            problems,
        )
        empty = sorted(ns for ns, n in sizes.items() if n < 1)
        if empty:
            problems.append(f"namespaces: no entries in {empty}")
        if (len(sizes) == len(namespaces) and "entries" in v
                and sum(sizes.values()) != v["entries"]):
            problems.append(
                f"namespaces sum to {sum(sizes.values())}, "
                f"entries is {v['entries']}"
            )
    if (expect_entries is not None and "entries" in v
            and v["entries"] != expect_entries):
        problems.append(f"{v['entries']} entries, expected {expect_entries}")
    return problems


def _check_forensics(doc, min_attributed: Optional[float]) -> List[str]:
    problems: List[str] = []
    v = _fields(doc, FORENSICS_FIELDS, "document", problems)
    _expect(v, "schema", FORENSICS_SCHEMA, "document", problems)
    if "attribution" in v:
        _check_attribution(
            v["attribution"], v.get("aborts"), min_attributed, problems
        )
    if "wasted_work" in v:
        _check_wasted(v["wasted_work"], problems)
    if v.get("gauge_mismatches"):
        problems.append(
            "ledger and gauge cycle accounting disagree: "
            f"{v['gauge_mismatches']}"
        )
    return problems


def _check_attribution(att, aborts, min_attributed, problems) -> None:
    a = _fields(att, ATTRIBUTION_FIELDS, "attribution", problems)
    if ("total_aborts" in a and aborts is not None
            and a["total_aborts"] != aborts):
        problems.append(
            f"attribution.total_aborts {a['total_aborts']} != aborts {aborts}"
        )
    fraction = a.get("attributed_fraction")
    if None not in (min_attributed, fraction) and fraction < min_attributed:
        problems.append(
            f"attributed fraction {fraction:.3f} below the floor "
            f"{min_attributed:.3f}"
        )
    if "breakdown" in a:
        where = "attribution.breakdown"
        breakdown = _fields(
            a["breakdown"], BREAKDOWN_FIELDS, where, problems, closed=True
        )
        if len(breakdown) == len(a["breakdown"]) == len(BREAKDOWN_FIELDS):
            total = sum(breakdown.values())
            attributed = total - breakdown["unattributed"]
            if "total_aborts" in a and total != a["total_aborts"]:
                problems.append(
                    f"{where} sums to {total}, "
                    f"total_aborts is {a['total_aborts']}"
                )
            if "attributed" in a and attributed != a["attributed"]:
                problems.append(
                    f"attribution.attributed {a['attributed']} != "
                    f"{attributed} attributed in the breakdown"
                )
    for i, record in enumerate(a.get("aborts", ())):
        where = f"attribution.aborts[{i}]"
        r = _fields(record, ABORT_FIELDS, where, problems)
        if "kind" in r and r["kind"] not in CAUSE_KINDS:
            problems.append(f"{where}: unknown kind {r['kind']!r}")
    for i, cascade in enumerate(a.get("cascades", ())):
        where = f"attribution.cascades[{i}]"
        c = _fields(cascade, CASCADE_FIELDS, where, problems)
        if {"size", "members"} <= c.keys() and c["size"] != len(c["members"]):
            problems.append(f"{where}: size != len(members)")


def _check_wasted(wasted, problems) -> None:
    w = _fields(wasted, WASTED_FIELDS, "wasted_work", problems)
    sums = dict.fromkeys(WASTED_WORK_BUCKETS, 0)
    for core, buckets in w.get("per_core", {}).items():
        where = f"wasted_work.per_core[{core}]"
        b = _fields(buckets, BUCKET_FIELDS, where, problems, closed=True)
        for bucket, n in b.items():
            sums[bucket] += n
        if (len(b) == len(BUCKET_FIELDS) and "total_cycles" in w
                and sum(b.values()) < w["total_cycles"]):
            problems.append(
                f"{where}: buckets sum below total_cycles "
                "(stalled under-counted)"
            )
    if "totals" in w and w["totals"] != sums:
        problems.append(
            f"wasted_work.totals {w['totals']} != per-core sum {sums}"
        )


def _check_compare(doc) -> List[str]:
    problems: List[str] = []
    v = _fields(doc, COMPARE_FIELDS, "document", problems)
    _expect(v, "schema", COMPARE_SCHEMA, "document", problems)
    sides = {
        s: _fields(v[s], COMPARE_SIDE_FIELDS, s, problems)
        for s in "ab" if s in v
    }
    cycles = [side.get("cycles") for side in sides.values()]
    if "cycles_delta" in v and len(cycles) == 2 and None not in cycles:
        want = cycles[1] - cycles[0]
        if v["cycles_delta"] != want:
            problems.append(
                f"cycles_delta {v['cycles_delta']} != b.cycles - a.cycles "
                f"{want}"
            )
    if "abort_breakdown" in v:
        cells = _compare_cells(
            v["abort_breakdown"], "abort_breakdown", CAUSE_KINDS, problems,
            optional=True,
        )
        # Every abort of a side has exactly one cause.
        for s, side in sides.items():
            total = sum(cell[s] for cell in cells)
            if "aborts" in side and total != side["aborts"]:
                problems.append(
                    f"abort_breakdown column {s} sums to {total} != "
                    f"{s}.aborts {side['aborts']}"
                )
    if "wasted_totals" in v:
        _compare_cells(
            v["wasted_totals"], "wasted_totals", WASTED_WORK_BUCKETS, problems
        )
    return problems


def _compare_cells(rows, where, keys, problems, *, optional=False):
    """Check one table of A/B/delta cells whose row names come from
    ``keys`` (every one of them unless ``optional``); returns the cells
    whose fields are all present and typed right."""
    rows = _fields(
        rows, dict.fromkeys(keys, dict), where, problems,
        optional=keys if optional else (), closed=True,
    )
    complete = []
    for key, cell in rows.items():
        at = f"{where}.{key}"
        c = _fields(cell, COMPARE_CELL_FIELDS, at, problems, closed=True)
        if len(c) < len(COMPARE_CELL_FIELDS):
            continue
        complete.append(c)
        if c["delta"] != c["b"] - c["a"]:
            problems.append(
                f"{at}: delta {c['delta']} != b - a {c['b'] - c['a']}"
            )
    return complete


def _check_events(lines: List[str]) -> List[str]:
    if not lines:
        return ["no events"]
    problems: List[str] = []
    last_cycle = 0
    for lineno, raw in enumerate(lines, 1):
        where = f"line {lineno}"
        record = _json_line(raw, where, problems)
        if record is None:
            continue
        kind = record.get("kind")
        if not isinstance(kind, str) or kind not in EVENT_TABLES:
            problems.append(f"{where}: unknown kind {_short.repr(kind)}")
            continue
        table, optional = EVENT_TABLES[kind]
        e = _fields(
            record, table, where, problems, optional=optional, closed=True
        )
        cycle = e.get("cycle")
        if cycle is None:
            continue
        if cycle < 0:
            problems.append(f"{where}: negative cycle {cycle}")
        elif cycle < last_cycle:
            problems.append(
                f"{where}: cycle {cycle} < previous {last_cycle}"
            )
        else:
            last_cycle = cycle
    return problems


def _check_spans(lines: List[str]) -> List[str]:
    if not lines:
        return ["empty span log"]
    problems: List[str] = []
    header = _json_line(lines[0], "line 1", problems)
    if header is not None:
        h = _fields(header, SESSION_FIELDS, "line 1", problems)
        _expect(h, "kind", "session", "line 1", problems)
        _expect(h, "schema", TELEMETRY_SCHEMA, "line 1", problems)
    spans: Dict[int, tuple] = {}  # id -> (start, end) when well typed
    roots = 0
    for lineno, raw in enumerate(lines[1:], 2):
        where = f"line {lineno}"
        span = _json_line(raw, where, problems)
        if span is None:
            continue
        s = _fields(span, SPAN_FIELDS, where, problems, optional=SPAN_OPTIONAL)
        _expect(s, "kind", "span", where, problems)
        if "id" not in s:
            continue
        if s["id"] in spans:
            problems.append(f"{where}: duplicate span id {s['id']}")
            continue
        name, status = s.get("name"), s.get("status")
        if "name" in s and name not in SPAN_NAMES:
            problems.append(f"{where}: unknown span name {name!r}")
        if "status" in s and status not in SPAN_STATUSES:
            problems.append(f"{where}: invalid status {status!r}")
        start, end = s.get("start_unix"), s.get("end_unix")
        if start is not None and end is not None and end < start:
            problems.append(f"{where}: span ends before it starts")
        if ("end_unix" in s and end is None
                and "status" in s and status != "open"):
            problems.append(f"{where}: status {status!r} but no end_unix")
        spans[s["id"]] = (start, end)
        if "parent" not in s:
            continue
        parent = s["parent"]
        if parent is None:
            if name == "run_many":
                roots += 1
            else:
                problems.append(f"{where}: non-run_many span has no parent")
        elif parent not in spans:
            problems.append(f"{where}: parent {parent} not defined before use")
        else:
            pstart, pend = spans[parent]
            if None not in (start, pstart) and start < pstart - CLOCK_SLACK_S:
                problems.append(
                    f"{where}: span {s['id']} starts {pstart - start:.3f}s "
                    f"before its parent {parent}"
                )
            if None not in (end, pend) and end > pend + CLOCK_SLACK_S:
                problems.append(
                    f"{where}: span {s['id']} ends {end - pend:.3f}s "
                    f"after its parent {parent}"
                )
    if not spans:
        problems.append("no spans recorded")
    elif not roots:
        problems.append("no run_many root span")
    return problems


def _check_chrome(doc) -> List[str]:
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    problems: List[str] = []
    named = set()
    last_ts: Dict[tuple, int] = {}  # track -> ts of its last event
    depth: Dict[tuple, int] = {}  # track -> open B slices
    slices: Dict[tuple, list] = {}  # track -> X (ts, dur) pairs
    open_async: Dict[tuple, int] = {}  # (cat, id, name) -> open b
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        common = _fields(ev, CHROME_FIELDS, where, problems)
        if len(common) < len(CHROME_FIELDS):
            continue
        ph = ev["ph"]
        if ph not in CHROME_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        extra = CHROME_PHASES[ph]
        if len(_fields(ev, extra, where, problems)) < len(extra):
            continue
        track = (ev["pid"], ev["tid"])
        if ph == "M":
            if ev["name"] == "thread_name":
                named.add(track)
            continue
        ts = ev["ts"]
        if ts < last_ts.get(track, 0):
            problems.append(f"{where}: ts {ts} regresses on track {track}")
        last_ts[track] = ts
        if ph == "B":
            depth[track] = depth.get(track, 0) + 1
        elif ph == "E":
            if depth.get(track, 0) == 0:
                problems.append(f"{where}: E without a B on track {track}")
            else:
                depth[track] -= 1
        elif ph == "X":
            slices.setdefault(track, []).append((ts, ev["dur"]))
        elif ph in ("b", "e"):
            key = (ev["cat"], ev["id"], ev["name"])
            if ph == "b":
                open_async[key] = open_async.get(key, 0) + 1
            elif open_async.get(key, 0) == 0:
                problems.append(f"{where}: 'e' without a 'b' for {key}")
            else:
                open_async[key] -= 1
    problems += [
        f"track {track}: {n} unclosed B slice(s)"
        for track, n in sorted(depth.items()) if n
    ]
    problems += [
        f"async {key}: {n} unclosed 'b'"
        for key, n in sorted(open_async.items(), key=str) if n
    ]
    for track, intervals in sorted(slices.items()):
        enclosing: List[int] = []  # end ts of the slices around this one
        for ts, dur in sorted(intervals, key=lambda s: (s[0], -s[1])):
            while enclosing and enclosing[-1] <= ts + NESTING_SLACK_US:
                enclosing.pop()
            if enclosing and ts + dur > enclosing[-1] + NESTING_SLACK_US:
                problems.append(
                    f"track {track}: X slice at ts={ts} dur={dur} overlaps "
                    f"the slice around it (ends at {enclosing[-1]})"
                )
            enclosing.append(ts + dur)
    problems += [
        f"track {track}: carries events but has no thread_name"
        for track in sorted(set(last_ts) - named)
    ]
    return problems


# ----------------------------------------------------------------------
# Entry points.
# ----------------------------------------------------------------------
def check_text(
    kind: str,
    text: str,
    *,
    min_attributed: Optional[float] = None,
    expect_entries: Optional[int] = None,
) -> List[str]:
    """Every problem with ``text`` as a document of ``kind``; empty
    when it is valid."""
    if kind == "events":
        return _check_events(text.splitlines())
    if kind == "spans":
        return _check_spans(text.splitlines())
    if kind not in KINDS:
        raise ValueError(f"unknown document kind {kind!r}")
    try:
        doc = _loads(text)
    except ValueError as exc:
        return [f"not JSON ({exc})"]
    if not isinstance(doc, dict):
        return [f"{_short.repr(doc)} is not a JSON object"]
    if kind == "store":
        return _check_store(doc, expect_entries)
    if kind == "forensics":
        return _check_forensics(doc, min_attributed)
    if kind == "compare":
        return _check_compare(doc)
    return _check_chrome(doc)


def check_file(kind: str, path, **options) -> List[str]:
    """:func:`check_text` on the file at ``path``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [f"cannot read: {exc}"]
    return check_text(kind, text, **options)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=KINDS, help="document kind")
    parser.add_argument("path", help="document to validate")
    parser.add_argument(
        "--min-attributed", type=float, metavar="F",
        help="forensics: fail unless attributed_fraction >= F",
    )
    parser.add_argument(
        "--expect-entries", type=int, metavar="N",
        help="store: fail unless the store holds exactly N entries",
    )
    args = parser.parse_args(argv)
    if args.min_attributed is not None and args.kind != "forensics":
        parser.error("--min-attributed applies to forensics only")
    if args.expect_entries is not None and args.kind != "store":
        parser.error("--expect-entries applies to store only")
    problems = check_file(
        args.kind, args.path,
        min_attributed=args.min_attributed,
        expect_entries=args.expect_entries,
    )
    for problem in problems:
        print(f"INVALID {args.kind} {args.path}: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"OK: {args.kind} {args.path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
