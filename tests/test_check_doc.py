"""Tests for ``scripts/check_doc.py``: one valid document per kind, made
by the real writer at tiny scale, a table of broken copies that must
each yield the problem they name, and the command-line contract."""

from __future__ import annotations

import copy
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.forensics import collect_forensics, compare_reports
from repro.experiments.runner import RunConfig
from repro.obs import ChromeTraceExporter, JsonlTraceWriter
from repro.obs.telemetry import TelemetrySession
from repro.sim.config import table2_config
from repro.sim.simulator import Simulator
from repro.store import ResultStore
from repro.systems import paper
from repro.workloads.base import make_workload

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_doc.py"
sys.path.insert(0, str(SCRIPT.parent))
import check_doc  # noqa: E402

FAST = dict(threads=4, seed=2, scale=0.1)

#: Base document name -> the kind it is checked as.
KIND = {
    "store": "store",
    "forensics": "forensics",
    "compare": "compare",
    "events": "events",
    "spans": "spans",
    "sim-chrome": "chrome",
    "fleet-chrome": "chrome",
}


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """Base name -> a valid document: a JSON object, or for the JSONL
    kinds a list of line records."""
    sim = Simulator(
        make_workload("counter", **FAST), htm=table2_config(paper.CHATS)
    )
    lines = io.StringIO()
    exporter = ChromeTraceExporter()
    with JsonlTraceWriter(lines) as writer:
        sim.probe.subscribe(writer)
        sim.probe.subscribe(exporter)
        sim.run()

    session = TelemetrySession()
    root = session.begin("run_many")
    session.finish(session.begin("cache-probe", parent=root))
    submit = session.begin("submit", parent=root)
    t = time.time()
    session.add("execute", t, t + 0.005, parent=submit,
                lane=session.lane_for(4242), pid=4242)
    session.finish(submit)
    session.finish(root)

    store = ResultStore(tmp_path_factory.mktemp("store"))
    store.put("result/" + "aa" * 32, b'{"pad": 1}')
    store.put("figure/fig1/" + "bb" * 6, b"{}")

    chats, baseline = (
        collect_forensics(RunConfig.make("counter", system, **FAST))[1]
        for system in ("chats", "baseline")
    )
    built = {
        "store": store.stats(),
        "forensics": chats.to_dict(),
        "compare": compare_reports(chats, baseline),
        "events": lines.getvalue().splitlines(),
        "spans": list(session.jsonl_lines()),
        "sim-chrome": exporter.finalize(),
        "fleet-chrome": session.to_chrome(),
    }
    for name in ("events", "spans"):
        built[name] = [json.loads(line) for line in built[name]]
    built = json.loads(json.dumps(built))  # JSON types only
    assert built["forensics"]["attribution"]["aborts"]
    return built


def _text(base: str, doc) -> str:
    if KIND[base] in ("events", "spans"):
        return "".join(
            (r if isinstance(r, str) else json.dumps(r)) + "\n" for r in doc
        )
    return json.dumps(doc)


# ----------------------------------------------------------------------
# Mutations: each edits a deep copy in place, or returns a replacement.
# ----------------------------------------------------------------------
def setv(*path_and_value):
    *path, value = path_and_value

    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


def drop(*path):
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return mutate


def bump(*path, by=1):
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] += by
    return mutate


def same(doc):
    return None


def _first(doc, ph):
    return next(ev for ev in doc["traceEvents"] if ev["ph"] == ph)


def _pop(obj, key):
    del obj[key]


def _remove(doc, pred, last=False):
    events = doc["traceEvents"]
    order = range(len(events) - 1, -1, -1) if last else range(len(events))
    del events[next(i for i in order if pred(events[i]))]


def _first_with(records, field):
    return next(r for r in records if field in r)


def _named(name):
    return lambda ev: ev["ph"] == "M" and ev["args"]["name"] == name


def _overhang(doc):
    """An X slice that starts inside ``execute`` and ends past it."""
    execute = next(ev for ev in doc["traceEvents"] if ev["name"] == "execute")
    doc["traceEvents"].append({**execute, "ts": execute["ts"] + 100})


MUTATIONS = [
    # store
    ("store", setv("schema", "repro-store/0"), "schema", {}),
    ("store", setv("entries", True), "entries is True", {}),
    ("store", setv("logical_bytes", -1), "non-negative", {}),
    ("store", drop("stored_bytes"), "missing 'stored_bytes'", {}),
    ("store", setv("namespaces", []), "namespaces is []", {}),
    ("store", drop("counters", "hits"), "missing 'hits'", {}),
    ("store", setv("counters", "corrupt", -1), "corrupt is -1", {}),
    ("store", setv("namespaces", "mystery", 0), "unknown ['mystery']", {}),
    ("store", setv("namespaces", "figure", 0), "no entries in", {}),
    ("store", bump("entries"), "namespaces sum to", {}),
    ("store", same, "expected 99", {"expect_entries": 99}),
    # forensics
    ("forensics", setv("schema", "repro-forensics/0"), "schema", {}),
    ("forensics", setv("threads", True), "threads is True", {}),
    ("forensics", setv("scale", "0.1"), "want number", {}),
    ("forensics", drop("wasted_work"), "missing 'wasted_work'", {}),
    ("forensics", setv("attribution", []), "attribution is []", {}),
    ("forensics", bump("attribution", "total_aborts"), "!= aborts", {}),
    ("forensics", setv("attribution", "breakdown", "gremlins", 0),
     "undeclared fields ['gremlins']", {}),
    ("forensics", bump("attribution", "breakdown", "conflict"),
     "sums to", {}),
    ("forensics", bump("attribution", "attributed"),
     "attributed in the breakdown", {}),
    ("forensics", setv("attribution", "aborts", 0, "kind", "gremlins"),
     "unknown kind 'gremlins'", {}),
    ("forensics", setv("attribution", "aborts", 0, "core", "0"),
     "core is '0'", {}),
    ("forensics", setv("attribution", "aborts", 0, 7), "not an object", {}),
    ("forensics", lambda d: d["attribution"]["cascades"].append(
        {"root": [0, 1], "members": [[0, 1]], "size": 2, "depth": 0}),
     "size != len(members)", {}),
    ("forensics", drop("wasted_work", "per_core", "0", "stalled"),
     "missing 'stalled'", {}),
    ("forensics", setv("wasted_work", "per_core", "0", "fallback", -1),
     "fallback is -1", {}),
    ("forensics", bump("wasted_work", "total_cycles", by=10**9),
     "below total_cycles", {}),
    ("forensics", bump("wasted_work", "totals", "committed"),
     "per-core sum", {}),
    ("forensics", setv("gauge_mismatches", "stalled", {"ledger": 1}),
     "disagree", {}),
    ("forensics", same, "below the floor", {"min_attributed": 1.01}),
    ("forensics", setv("attribution", "attributed_fraction", float("nan")),
     "NaN is not a JSON value", {"min_attributed": 0.95}),
    # compare
    ("compare", setv("schema", "repro-forensics/1"), "schema", {}),
    ("compare", drop("b", "system"), "missing 'system'", {}),
    ("compare", setv("a", "cycles", -1), "cycles is -1", {}),
    ("compare", bump("cycles_delta"), "!= b.cycles - a.cycles", {}),
    ("compare", bump("wasted_totals", "stalled", "b"), "!= b - a", {}),
    ("compare", setv("wasted_totals", "fallback", "delta", True),
     "delta is True", {}),
    ("compare", drop("wasted_totals", "committed"),
     "missing 'committed'", {}),
    ("compare", setv("abort_breakdown", "gremlins",
                     {"a": 0, "b": 0, "delta": 0}),
     "undeclared fields ['gremlins']", {}),
    ("compare", bump("b", "aborts"), "column b sums to", {}),
    # events
    ("events", setv(0, "kind", "gremlin"), "unknown kind", {}),
    ("events", drop(0, "cycle"), "missing 'cycle'", {}),
    ("events", setv(0, "extra", 1), "undeclared fields ['extra']", {}),
    ("events", lambda d: _first_with(d, "core").update(core="0"),
     "core is '0'", {}),
    ("events", setv(0, "cycle", True), "cycle is True", {}),
    ("events", setv(0, "cycle", -1), "negative cycle", {}),
    ("events", lambda d: d.insert(0, d[-1]), "< previous", {}),
    ("events", lambda d: d.insert(1, ""), "blank line", {}),
    ("events", lambda d: d.insert(1, "{oops"), "not JSON", {}),
    ("events", setv(0, []), "not an object", {}),
    ("events", lambda d: [], "no events", {}),
    # spans
    ("spans", setv(0, []), "line 1: [] is not an object", {}),
    ("spans", setv(0, "pid", None), "pid is None", {}),
    ("spans", setv(0, "schema", "repro-telemetry/0"), "schema", {}),
    ("spans", setv(0, "kind", "span"), "want 'session'", {}),
    ("spans", setv(1, "name", "mystery"), "unknown span name", {}),
    ("spans", lambda d: d.append(d[2]), "duplicate span id", {}),
    ("spans", setv(2, "parent", 999), "parent 999 not defined", {}),
    ("spans", lambda d: d[2].update(end_unix=d[2]["start_unix"] - 1),
     "ends before it starts", {}),
    ("spans", lambda d: d[2].update(start_unix=d[1]["start_unix"] - 1),
     "before its parent", {}),
    ("spans", setv(1, "name", "submit"), "no run_many root", {}),
    ("spans", lambda d: d.insert(2, ""), "blank line", {}),
    ("spans", setv(1, "status", "meh"), "invalid status", {}),
    ("spans", setv(1, "end_unix", None), "but no end_unix", {}),
    ("spans", setv(1, "id", True), "id is True", {}),
    ("spans", lambda d: d[:1], "no spans recorded", {}),
    # chrome, simulator export
    ("sim-chrome", lambda d: d["traceEvents"], "not a JSON object", {}),
    ("sim-chrome", setv("traceEvents", []), "traceEvents missing", {}),
    ("sim-chrome", lambda d: _first(d, "i").update(ph="Z"),
     "unknown phase", {}),
    ("sim-chrome", lambda d: _first(d, "B").update(ts=1.5),
     "ts is 1.5", {}),
    ("sim-chrome", lambda d: _first(d, "i").update(ts=-1),
     "ts is -1", {}),
    ("sim-chrome", lambda d: d["traceEvents"].append(
        {**_first(d, "i"), "ts": 0}), "regresses", {}),
    ("sim-chrome", lambda d: _remove(d, lambda ev: ev["ph"] == "B"),
     "E without a B", {}),
    ("sim-chrome", lambda d: _remove(d, lambda ev: ev["ph"] == "E", True),
     "unclosed B", {}),
    ("sim-chrome", lambda d: _remove(d, _named("core 0")),
     "no thread_name", {}),
    ("sim-chrome", lambda d: _pop(_first(d, "i"), "pid"),
     "missing 'pid'", {}),
    ("sim-chrome", lambda d: _first(d, "i").update(tid="0"),
     "tid is '0'", {}),
    # chrome, fleet export
    ("fleet-chrome", lambda d: _first(d, "X").update(ts=True),
     "ts is True", {}),
    ("fleet-chrome", lambda d: _remove(d, lambda ev: ev["ph"] == "e"),
     "unclosed 'b'", {}),
    ("fleet-chrome", lambda d: _remove(d, lambda ev: ev["ph"] == "b"),
     "'e' without a 'b'", {}),
    ("fleet-chrome", lambda d: _pop(_first(d, "b"), "id"),
     "missing 'id'", {}),
    ("fleet-chrome", _overhang, "overlaps the slice around it", {}),
    ("fleet-chrome", lambda d: _first(d, "X").update(dur=-1),
     "dur is -1", {}),
    ("fleet-chrome", lambda d: _remove(d, _named("worker 4242")),
     "no thread_name", {}),
]


@pytest.mark.parametrize("base", sorted(KIND))
def test_writer_output_is_valid(docs, base):
    assert check_doc.check_text(KIND[base], _text(base, docs[base])) == []


@pytest.mark.parametrize(
    "base, mutate, expected, options",
    MUTATIONS,
    ids=[f"{m[0]}-" + re.sub(r"\W+", "-", m[2]).strip("-") for m in MUTATIONS],
)
def test_mutation_is_a_problem(docs, base, mutate, expected, options):
    doc = copy.deepcopy(docs[base])
    replaced = mutate(doc)
    if replaced is not None:
        doc = replaced
    problems = check_doc.check_text(KIND[base], _text(base, doc), **options)
    assert any(expected in p for p in problems), problems


# ----------------------------------------------------------------------
class TestCommandLine:
    def test_valid_file_exits_zero(self, docs, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(_text("sim-chrome", docs["sim-chrome"]))
        assert check_doc.main(["chrome", str(path)]) == 0
        assert capsys.readouterr().out.startswith("OK: chrome")

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("chrome", "[1, 2]"),
            ("spans", "[]\n"),
            ("store", "not json"),
            ("forensics", '{"schema": 1, "attribution": {"aborts": [7]}}'),
        ],
        ids=["chrome-list", "spans-list-header", "store-not-json",
             "forensics-mistyped"],
    )
    def test_invalid_file_lists_problems(self, kind, text, tmp_path, capsys):
        path = tmp_path / "doc"
        path.write_text(text)
        assert check_doc.main([kind, str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err and all(line.startswith("INVALID ") for line in err)

    def test_flag_for_another_kind_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            check_doc.main(["chrome", str(tmp_path), "--expect-entries", "1"])
        assert exc.value.code == 2

    def test_script_runs_without_pythonpath(self, docs, tmp_path):
        good = tmp_path / "stats.json"
        good.write_text(_text("store", docs["store"]))
        bad = tmp_path / "list.json"
        bad.write_text("[]")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

        def run(*args):
            return subprocess.run(
                [sys.executable, str(SCRIPT), *args],
                capture_output=True, text=True, env=env, timeout=60,
            )

        ok = run("store", str(good), "--expect-entries", "2")
        assert ok.returncode == 0, ok.stderr
        broken = run("store", str(bad))
        assert broken.returncode == 1
        assert broken.stderr.startswith("INVALID store")
        assert "Traceback" not in broken.stderr
