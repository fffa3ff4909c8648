"""Tests for the perf-history reader: ``repro.analysis.trends`` and the
``repro trend`` CLI over ``pr<N>/{parent,change}.jsonl`` perfbench
records."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis.trends import TrendError, format_trend, load_history

HISTORY = Path(__file__).resolve().parent.parent / "benchmarks/perf/history"


def _env(workload: str) -> dict:
    return {"environment": {"workload": workload, "seed": 1,
                            "backend": "python", "python": "3.11.7",
                            "nproc": 2}}


def _result(metrics: dict, failed: int = 0) -> dict:
    return {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def _run(workload: str, metrics: dict, failed: int = 0) -> list:
    """The stdout of one ``--workload <workload>`` run."""
    return [_env(workload), _result(metrics, failed)]


def _all_run(per_workload: dict) -> list:
    """The stdout of one ``--workload all`` run, total line last."""
    lines, total = [], {}
    for workload, metrics in per_workload.items():
        lines += _run(workload, metrics)
        total.update({f"{workload}/{k}": v for k, v in metrics.items()})
    return lines + [_result(total)]


def _eps(value: float) -> dict:
    return {"events_per_cpu_s": (value, "events/s")}


def _write(path: Path, runs: list) -> None:
    """Append each run's lines, as ``perfbench/run.py >> path`` does."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        for run in runs:
            for doc in run:
                fh.write(json.dumps(doc) + "\n")


@pytest.fixture
def history(tmp_path) -> Path:
    """pr9: three single-workload runs a side.  pr12: two ``all`` runs a
    side plus one traced run of llb-h, whose metrics are per-layer."""
    directory = tmp_path / "history"
    _write(directory / "pr9/parent.jsonl",
           [_run("sim-chats-llbh", _eps(v)) for v in (120e3, 100e3, 110e3)])
    _write(directory / "pr9/change.jsonl",
           [_run("sim-chats-llbh", _eps(v)) for v in (132e3, 120e3, 125e3)])
    for side, scale in (("parent", 1.0), ("change", 0.9)):
        _write(directory / f"pr12/{side}.jsonl", [
            _all_run({
                "sim-chats-llbh": _eps(200e3 * scale * k),
                "report-sweep": {"cold_wall_s": (4.0 / scale / k, "s")},
            })
            for k in (1.0, 1.1)
        ] + [_run("sim-chats-llbh", {
            "engine.share": (0.30 * scale, "ratio"),
            "net.messages": (5000, "count"),
        })])
    (directory / "README.md").write_text("not a record\n")
    return directory


def _line(text: str, pr: str, workload: str, metric: str) -> str:
    """The rendered line of ``metric`` under ``workload`` in ``pr``."""
    block = text.split(f"\n{pr}\n", 1)[1].split("\npr", 1)[0]
    rows = block.split(f"  {workload}: ", 1)[1].splitlines()
    return next(row for row in rows if row.split()[0] == metric)


# ----------------------------------------------------------------------
class TestLoadHistory:
    def test_orders_prs_by_number(self, history):
        assert [number for number, _ in load_history(history)] == [9, 12]

    def test_collects_every_run_by_workload(self, history):
        (_, pr9), (_, pr12) = load_history(history)
        runs = pr9["parent"]["sim-chats-llbh"]
        assert runs.runs == 3 and runs.failed == 0
        assert runs.metrics["events_per_cpu_s"] == (
            "events/s", [120e3, 100e3, 110e3]
        )
        llbh = pr12["change"]["sim-chats-llbh"]
        assert llbh.runs == 3  # two ``all`` runs and the traced run
        assert len(llbh.metrics["events_per_cpu_s"][1]) == 2
        assert len(llbh.metrics["engine.share"][1]) == 1

    def test_all_total_line_is_skipped(self, history):
        (_, pr12) = load_history(history)[1]
        assert set(pr12["parent"]) == {"sim-chats-llbh", "report-sweep"}
        for runs in pr12["parent"].values():
            assert not any("/" in name for name in runs.metrics)
        assert pr12["parent"]["report-sweep"].runs == 2

    def test_failed_operations_are_summed(self, tmp_path):
        for side in ("parent", "change"):
            _write(tmp_path / f"pr1/{side}.jsonl",
                   [_run("sim-be-kmeansh", _eps(1e5), failed=2)] * 2)
        (_, pr1), = load_history(tmp_path)
        assert pr1["change"]["sim-be-kmeansh"].failed == 4

    def test_missing_directory(self, tmp_path):
        with pytest.raises(TrendError, match="does not exist"):
            load_history(tmp_path / "nope")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(TrendError, match=r"no pr<N>/ records"):
            load_history(tmp_path)

    @pytest.mark.parametrize("missing", ["parent", "change"])
    def test_pr_needs_both_records(self, history, missing):
        (history / f"pr12/{missing}.jsonl").unlink()
        with pytest.raises(TrendError, match=f"no {missing}.jsonl"):
            load_history(history)

    @pytest.mark.parametrize(
        "line",
        [
            "{broken",
            json.dumps([1, 2]),
            json.dumps({"correct": True, "failed": 0}),
            json.dumps(_result({"events_per_cpu_s": ("fast", "events/s")})),
            json.dumps({"environment": {"seed": 1}}),
        ],
        ids=["not-json", "not-object", "missing-keys", "no-value",
             "no-workload"],
    )
    def test_corrupt_report_fails_the_load(self, history, line):
        with (history / "pr9/change.jsonl").open("a") as fh:
            fh.write(line + "\n")
        with pytest.raises(TrendError, match=r"change.jsonl:\d+: not a "):
            load_history(history)

    def test_record_without_a_result_fails(self, history):
        (history / "pr9/parent.jsonl").write_text(
            json.dumps(_env("sim-chats-llbh")) + "\n"
        )
        with pytest.raises(TrendError, match="no perfbench result line"):
            load_history(history)


# ----------------------------------------------------------------------
class TestTrend:
    def test_renders_every_report_and_case(self, history):
        text = format_trend(load_history(history))
        assert text.index("\npr9\n") < text.index("\npr12\n")
        for workload in ("sim-chats-llbh", "report-sweep"):
            assert f"  {workload}: " in text

    def test_medians_and_deltas(self, history):
        text = format_trend(load_history(history))
        assert _line(text, "pr9", "sim-chats-llbh", "events_per_cpu_s").split() == [
            "events_per_cpu_s", "110,000", "125,000", "+13.6%", "events/s",
        ]
        # Two ``all`` runs a side: the median is their mean.
        assert _line(text, "pr12", "sim-chats-llbh", "events_per_cpu_s").split() == [
            "events_per_cpu_s", "210,000", "189,000", "-10.0%", "events/s",
        ]
        assert _line(text, "pr12", "report-sweep", "cold_wall_s").split()[1:] == [
            "3.818", "4.242", "+11.1%", "s",
        ]
        assert "pr12\n  report-sweep: parent 2 runs, 0 failed ops; " in text

    def test_per_layer_lines(self, history):
        text = format_trend(load_history(history))
        assert _line(text, "pr12", "sim-chats-llbh", "engine.share").split() == [
            "engine.share", "0.3", "0.27", "-10.0%", "ratio",
        ]
        assert _line(text, "pr12", "sim-chats-llbh", "net.messages").split()[1:] == [
            "5,000", "5,000", "+0.0%", "count",
        ]
        assert "engine.share" not in text.split("\npr12\n")[0]

    def test_metric_on_one_side_has_no_delta(self, history):
        _write(history / "pr9/change.jsonl",
               [_run("sim-chats-llbh", {"peak_rss_mb": (30.0, "MiB")})])
        text = format_trend(load_history(history))
        assert _line(text, "pr9", "sim-chats-llbh", "peak_rss_mb").split() == [
            "peak_rss_mb", "-", "30", "-", "MiB",
        ]


# ----------------------------------------------------------------------
class TestTrendCli:
    def test_renders_and_exits_zero(self, history, capsys):
        assert main(["trend", str(history)]) == 0
        out = capsys.readouterr().out
        assert "\npr12\n" in out
        assert "+13.6%" in out

    def test_missing_history_exits_nonzero(self, tmp_path, capsys):
        assert main(["trend", str(tmp_path / "nope")]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_empty_history_exits_nonzero(self, tmp_path, capsys):
        assert main(["trend", str(tmp_path)]) == 1
        assert "no pr<N>/ records" in capsys.readouterr().err

    def test_corrupt_report_exits_nonzero(self, history, capsys):
        with (history / "pr12/parent.jsonl").open("a") as fh:
            fh.write("{broken\n")
        assert main(["trend", str(history)]) == 1
        assert "not a perfbench line" in capsys.readouterr().err

    def test_committed_history_renders(self, capsys):
        """The committed records render, and the runs behind every PR's
        records reproduced every pinned result."""
        assert main(["trend", str(HISTORY)]) == 0
        out = capsys.readouterr().out
        # Each "pr<N>" header line opens that PR's section.
        parts = re.split(r"^(pr\d+)$", out, flags=re.M)
        sections = dict(zip(parts[1::2], parts[2::2]))
        for pr, text in sections.items():
            counts = {
                line.split(":")[0].strip(): line
                for line in text.splitlines()
                if line.endswith(" failed ops")
            }
            if pr in ("pr30", "pr31"):
                assert set(counts) == {
                    "sim-chats-llbh", "sim-be-kmeansh", "report-sweep"
                }, pr
            for workload, line in counts.items():
                assert line.count(" 0 failed ops") == 2, (pr, workload)
        assert {"pr30", "pr31"} <= set(sections)
        assert "events_per_cpu_s" in out
