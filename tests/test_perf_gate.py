"""The CI ``perf-smoke`` gate: the inline script in
``.github/workflows/ci.yml`` that reads perfbench's last stdout line.

The script is run as CI runs it, on copies of a perfbench total line, so
a wrong result and a throughput collapse each fail the job.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

CI = Path(__file__).resolve().parent.parent / ".github/workflows/ci.yml"


def _gate_script() -> str:
    text = CI.read_text("utf-8")
    body = text.split("python3 - perf.jsonl <<'EOF'\n", 1)[1]
    return textwrap.dedent(body.split("\n          EOF\n", 1)[0])


def _total(correct=True, failed=0, rates=(305_000.0, 256_000.0, 199_000.0)):
    """A ``perfbench/run.py --workload all`` total line."""
    metrics = {}
    for workload, rate in zip(
        ("sim-chats-llbh", "sim-be-kmeansh", "report-sweep"), rates
    ):
        metrics[f"{workload}/events_per_cpu_s"] = {
            "value": rate, "unit": "events/s"
        }
        metrics[f"{workload}/peak_rss_mb"] = {"value": 30.0, "unit": "MiB"}
    return {"correct": correct, "attempted": 30, "failed": failed,
            "metrics": metrics}


def _gate(tmp_path, last: dict) -> int:
    perf = tmp_path / "perf.jsonl"
    perf.write_text(
        json.dumps({"environment": {"workload": "report-sweep"}}) + "\n"
        + json.dumps(last) + "\n"
    )
    return subprocess.run(
        [sys.executable, "-", str(perf)], input=_gate_script(), text=True,
        capture_output=True,
    ).returncode


def test_passes_a_correct_run_above_the_floor(tmp_path):
    assert _gate(tmp_path, _total()) == 0
    assert _gate(tmp_path, _total(rates=(90_000, 90_000, 90_000))) == 0


@pytest.mark.parametrize(
    "last",
    [
        _total(correct=False),
        _total(failed=1),
        _total(rates=(305_000.0, 256_000.0, 89_999.0)),
        {"correct": True, "attempted": 0, "failed": 0, "metrics": {}},
    ],
    ids=["wrong-digest", "failed-op", "below-floor", "no-rates"],
)
def test_fails_a_wrong_or_slow_run(tmp_path, last):
    assert _gate(tmp_path, last) == 1
