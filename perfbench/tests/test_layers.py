"""The layer map places every module, and the benchmark's metric lists agree.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import cProfile
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import layers  # noqa: E402


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def test_every_module_maps_to_exactly_one_layer():
    modules = layers.package_modules(SRC)
    assert len(modules) > 50
    assert layers.unplaced(modules) == []
    assert {layers.layer_of(m) for m in modules} <= set(layers.PROFILED_LAYERS)


def test_every_rule_places_some_module():
    modules = layers.package_modules(SRC)
    stale = [
        rule for rule, _ in layers.LAYER_RULES
        if not any(layers._matches(rule, m) for m in modules)
    ]
    assert stale == []


def test_new_module_falls_through_to_unmapped():
    assert layers.layer_of("repro.sim.newthing") == layers.UNMAPPED
    assert layers.layer_of("repro.systems.newthing") == "policy"


def test_profile_files_bucket_by_layer():
    buckets = layers.ProfileBuckets(SRC)
    assert buckets.layer_of_file(str(SRC / "repro/mem/l1controller.py")) == "l1"
    assert buckets.layer_of_file(str(SRC / "repro/sim/engine.py")) == "engine"
    assert buckets.layer_of_file(str(SRC / "repro/obs/__init__.py")) == "obs"
    assert buckets.layer_of_file("~") == "builtins"
    assert buckets.layer_of_file("/usr/lib/python3/heapq.py") == "builtins"


def test_moves_table_covers_exactly_the_per_layer_metrics():
    moves = json.loads((BENCH / "moves.json").read_text("utf-8"))
    listed = [m for group in moves.values() for m in group["metrics"]]
    declared = [m["name"] for m in _benchmark()["per_layer"]]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(declared)
    for group, entry in moves.items():
        assert all(m.split(".")[0] == group for m in entry["metrics"])
        assert entry["moves"]


def test_traced_metrics_are_the_declared_per_layer_metrics():
    import measure
    from repro.sim.simulator import run_simulation
    from repro.workloads.base import make_workload

    profiler = cProfile.Profile()
    profiler.enable()
    result = run_simulation(make_workload("llb-h", threads=2, scale=0.05), "chats")
    profiler.disable()
    emitted = set(measure._profile_metrics(profiler))
    emitted |= set(measure._model_counts([result]))
    emitted |= set(measure._pass_metrics("cold", None, None))
    emitted |= set(measure._pass_metrics("warm", None, None))
    emitted.add("trace.overhead")
    assert emitted == {m["name"] for m in _benchmark()["per_layer"]}
