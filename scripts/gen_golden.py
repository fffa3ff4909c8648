#!/usr/bin/env python3
"""Generate (or verify) the golden determinism digests.

For every STAMP workload, two seeds, and a spread of HTM systems, run a
small fixed-scale simulation and hash the *complete* canonical
``SimulationResult`` (``to_dict`` serialized with sorted keys).  The
digests pin the simulator's observable behaviour bit-for-bit: any change
to event ordering, coherence resolution, or stats accounting shows up as
a digest mismatch.

The checked-in file ``tests/golden_digests.json`` was produced by the
pre-optimisation (seed) engine; ``tests/test_golden_determinism.py``
replays the same matrix on the current engine and compares.  Regenerate
only when an *intentional* behaviour change lands::

    PYTHONPATH=src python scripts/gen_golden.py --write

``--verify`` (the default) exits non-zero on any mismatch, so the script
doubles as a standalone equivalence checker outside pytest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden_digests.json"

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
SYSTEMS = ("baseline", "chats", "pchats")
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


def generate() -> dict:
    digests = {}
    for workload in STAMP_WORKLOADS:
        for system in SYSTEMS:
            for seed in SEEDS:
                result = run_case(workload, system, seed)
                digests[case_key(workload, system, seed)] = result_digest(result)
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write",
        action="store_true",
        help=f"overwrite {GOLDEN_PATH.name} with freshly generated digests",
    )
    args = parser.parse_args(argv)

    digests = generate()
    if args.write:
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests -> {GOLDEN_PATH}")
        return 0

    golden = json.loads(GOLDEN_PATH.read_text())
    bad = {k for k in golden if digests.get(k) != golden[k]}
    bad |= set(digests) - set(golden)
    if bad:
        for key in sorted(bad):
            print(
                f"MISMATCH {key}: golden={golden.get(key, '<absent>')[:12]} "
                f"now={digests.get(key, '<absent>')[:12]}",
                file=sys.stderr,
            )
        return 1
    print(f"OK: {len(digests)} digests match {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
