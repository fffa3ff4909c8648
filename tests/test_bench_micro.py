"""Smoke test running every case of ``benchmarks/perf/bench_micro.py``
a few times, so a case cannot break unnoticed when the code it imports
moves or changes its signature."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks/perf/bench_micro.py"


def load():
    spec = importlib.util.spec_from_file_location("bench_micro", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CASES = [case for cases in load().BENCHES for case in cases]


@pytest.mark.parametrize(
    "fn", [fn for _, fn, _ in CASES], ids=[name for name, _, _ in CASES]
)
def test_case_runs(fn):
    fn(10)
