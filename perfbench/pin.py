#!/usr/bin/env python3
"""Regenerate ``pinned.json``: the workload seeds and their expected outputs.

For each simulation workload, out of the 48 candidate seeds whose runs
simulate the number of events closest to the candidates' median, the 16
whose simulations cost the CPU time (normalised by the host reference,
median of interleaved rounds) closest to those 48's median, each with
the digest of its ``SimulationResult``.  Seeds of equal event counts
still differ by up to a fifth in cost; inputs of one size and cost keep
the spread between seeds down to the host's noise.  For the report sweep, seeds
1-16 with the digests of all their results and of their figure
renderings (after checking that a warm pass renders the same bytes).
The benchmark fails any operation whose output differs.  Regenerate only
after an intentional change of simulated behaviour::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
from typing import Dict, Iterable

from run import PINNED, WORK, import_program, pin_environment

SEEDS_PER_WORKLOAD = 16
SIM_CANDIDATES = range(1, 161)
COSTED = 48  # candidates closest in event count whose cost is measured
COST_ROUNDS = 4


def closest(values: Dict[int, float], n: int):
    """The ``n`` keys whose values are closest to the median value."""
    median = statistics.median(values.values())
    return sorted(values, key=lambda s: (abs(values[s] - median), s))[:n]


def costs(case, seeds: Iterable[int]) -> Dict[int, float]:
    """Median normalised CPU seconds of each seed's simulation over
    interleaved rounds, so a slow phase of the host hits every seed."""
    import measure
    from hostref import HostRef, pin_to_one_cpu

    pin_to_one_cpu()
    ref, seeds = HostRef(), list(seeds)
    samples: Dict[int, list] = {s: [] for s in seeds}
    for _ in range(COST_ROUNDS):
        for seed in seeds:
            (_result, _setup, _wall, cpu), scale = ref.bracket(lambda: measure.sim_once(case, seed))
            samples[seed].append(cpu * scale)
    return {s: statistics.median(v) for s, v in samples.items()}


def main() -> int:
    work = WORK / f"pin-{os.getpid()}"
    pin_environment(1, work / "cache")
    import_program()
    import measure
    from repro import accel

    pinned = {}
    try:
        with accel.use("python"):
            for name, case in measure.SIMS.items():
                events, digests = {}, {}
                for seed in SIM_CANDIDATES:
                    result = measure.sim_once(case, seed)[0]
                    events[seed], digests[seed] = result.events, measure.result_digest(result)
                cost = costs(case, closest(events, COSTED))
                chosen = closest(cost, SEEDS_PER_WORKLOAD)
                pinned[name] = {str(s): digests[s] for s in sorted(chosen)}
                print(
                    f"{name}: events {min(events[s] for s in chosen)}-{max(events[s] for s in chosen)},"
                    f" cost {min(cost[s] for s in chosen):.4f}-{max(cost[s] for s in chosen):.4f} s"
                    f" (of {min(cost.values()):.4f}-{max(cost.values()):.4f} s)",
                    file=sys.stderr,
                    flush=True,
                )
            pinned[measure.SWEEP] = {}
            for seed in range(1, SEEDS_PER_WORKLOAD + 1):
                os.environ["REPRO_SEED"] = str(seed)
                union, _ = measure.sweep_setup(work / f"store-{seed}")
                cold = measure.sweep_pass(union)
                measure._warm_pass(union, cold)
                pinned[measure.SWEEP][str(seed)] = measure.sweep_digests(union, cold)
                print(f"{measure.SWEEP} seed {seed}: pinned", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
