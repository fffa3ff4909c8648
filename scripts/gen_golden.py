#!/usr/bin/env python3
"""Generate (or verify) the golden determinism digests.

For every STAMP workload, two seeds, and every registered HTM system,
run a small fixed-scale simulation and hash the *complete* canonical
``SimulationResult`` (``to_dict`` serialized with sorted keys).  The
digests pin the simulator's observable behaviour bit-for-bit: any change
to event ordering, coherence resolution, or stats accounting shows up as
a digest mismatch.  Covering every system pins the power-token, capacity
and hybrid slow-path code too, not only the paper's three systems.

The checked-in file ``tests/golden_digests.json`` was produced by the
pre-optimisation (seed) engine for baseline, chats and pchats, and for
the other ten systems by commit 3b75d8b, before the L1's completion
callbacks were rewritten; ``tests/test_golden_determinism.py`` replays
the same matrix on the current engine and compares.

A result digest does not see *how* messages were sent, only their
totals.  So a few small traced runs with multi-sharer invalidation
rounds are hashed too: each digest is the sha256 of the JSONL probe
stream, byte for byte the file ``python -m repro trace WORKLOAD
--system SYSTEM --threads T --scale X --seed N --out F.jsonl`` writes.
They live beside the result digests in ``tests/golden_trace_digests.json``.

Regenerate only when an *intentional* behaviour change lands::

    PYTHONPATH=src python scripts/gen_golden.py --write

``--verify`` (the default) exits non-zero on any mismatch, so the script
doubles as a standalone equivalence checker outside pytest.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden_digests.json"
TRACE_GOLDEN_PATH = GOLDEN_PATH.with_name("golden_trace_digests.json")

#: The replay matrix.  Small scales keep the whole sweep interactive while
#: still exercising conflicts, forwarding, validation, and the fallback
#: path on every workload.
STAMP_WORKLOADS = (
    "genome",
    "intruder",
    "kmeans-h",
    "labyrinth",
    "ssca2",
    "vacation",
    "yada",
)
SEEDS = (1, 2)
#: Every registered system, in registry order (a test checks that none
#: is missing).
SYSTEMS = (
    "baseline",
    "naive-rs",
    "chats",
    "power",
    "pchats",
    "levc-be-idealized",
    "stall",
    "chats-ts",
    "cap-be",
    "cap-chats",
    "bloom-be",
    "hybrid-be",
    "hybrid-chats",
)
THREADS = 4
SCALE = 0.2


def result_digest(result) -> str:
    """Canonical sha256 of a :class:`SimulationResult`."""
    payload = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_case(workload: str, system: str, seed: int):
    from repro.sim.config import table2_config
    from repro.sim.simulator import run_simulation
    from repro.systems import get_spec
    from repro.workloads.base import make_workload

    spec = get_spec(system)
    wl = make_workload(workload, threads=THREADS, seed=seed, scale=SCALE)
    return run_simulation(wl, spec, htm=table2_config(spec))


def case_key(workload: str, system: str, seed: int) -> str:
    return f"{workload}/{system}/t{THREADS}/s{seed}/x{SCALE}"


#: The traced runs, as (workload, system, threads, scale, seed).  Both
#: have invalidation rounds with several sharers: llb-h under CHATS
#: answers most of its INVs with SpecResps, kmeans-h under the baseline
#: with aborts.
TRACE_CASES = (
    ("llb-h", "chats", 8, 0.1, 1),
    ("kmeans-h", "baseline", 8, 0.1, 1),
)


def trace_digest(workload: str, system: str, threads: int, scale: float, seed: int) -> str:
    """sha256 of the JSONL probe stream of one traced run."""
    from repro.experiments.runner import RunConfig, simulate
    from repro.obs import JsonlTraceWriter

    cfg = RunConfig.make(workload, system, threads=threads, seed=seed, scale=scale)
    stream = io.StringIO()
    simulate(cfg, JsonlTraceWriter(stream))
    return hashlib.sha256(stream.getvalue().encode("utf-8")).hexdigest()


def trace_key(workload: str, system: str, threads: int, scale: float, seed: int) -> str:
    return f"trace:{workload}/{system}/t{threads}/s{seed}/x{scale}"


def generate() -> dict:
    digests = {}
    for workload in STAMP_WORKLOADS:
        for system in SYSTEMS:
            for seed in SEEDS:
                result = run_case(workload, system, seed)
                digests[case_key(workload, system, seed)] = result_digest(result)
    return digests


def generate_traces() -> dict:
    return {trace_key(*case): trace_digest(*case) for case in TRACE_CASES}


def compare(digests: dict, path: Path, what: str) -> bool:
    """Report ``digests`` against the checked-in file at ``path``."""
    golden = json.loads(path.read_text())
    bad = {k for k in golden if digests.get(k) != golden[k]}
    bad |= set(digests) - set(golden)
    for key in sorted(bad):
        print(
            f"MISMATCH {key}: golden={golden.get(key, '<absent>')[:12]} "
            f"now={digests.get(key, '<absent>')[:12]}",
            file=sys.stderr,
        )
    if not bad:
        print(f"OK: {len(digests)} {what} match {path.name}")
    return not bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write",
        action="store_true",
        help=f"overwrite {GOLDEN_PATH.name} and {TRACE_GOLDEN_PATH.name} "
        "with freshly generated digests",
    )
    args = parser.parse_args(argv)

    outputs = (
        (generate(), GOLDEN_PATH, "digests"),
        (generate_traces(), TRACE_GOLDEN_PATH, "trace digests"),
    )
    if args.write:
        for digests, path, what in outputs:
            path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
            print(f"wrote {len(digests)} {what} -> {path}")
        return 0
    ok = [compare(digests, path, what) for digests, path, what in outputs]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
