#!/usr/bin/env python3
"""Quickstart: run one benchmark under the baseline and under CHATS.

This is the smallest useful tour of the public API:

* ``run_workload`` builds the 16-core Table I machine, installs the
  Table II HTM configuration for the chosen system, runs the workload to
  completion, and checks its correctness oracle.
* The returned :class:`~repro.sim.results.SimulationResult` carries
  execution time (cycles), commit/abort counters, the abort breakdown,
  forwarding statistics, and interconnect traffic.

Usage::

    python examples/quickstart.py [workload] [scale]
"""

import sys

from repro import run_workload


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "kmeans-h"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.4

    print(f"workload={workload}  scale={scale}  (16 cores, Table I machine)")
    print()

    baseline = run_workload(workload, "baseline", scale=scale)
    chats = run_workload(workload, "chats", scale=scale)

    for name, r in (("baseline (requester-wins)", baseline), ("CHATS", chats)):
        print(f"[{name}]")
        print(f"  execution time : {r.cycles:,} cycles")
        print(
            f"  commits        : {r.total_commits} "
            f"({r.stats.tx_commits} HTM, {r.stats.tx_fallback_commits} via lock)"
        )
        print(f"  aborts         : {r.total_aborts}")
        breakdown = {k: v for k, v in r.stats.abort_breakdown().items() if v}
        print(f"  abort causes   : {breakdown or '—'}")
        print(f"  spec forwards  : {r.stats.spec_forwards}")
        print(
            f"  validations    : {r.stats.validations_succeeded} ok / "
            f"{r.stats.validation_mismatches} mismatched"
        )
        print(f"  network flits  : {r.flits:,}")
        print()

    speedup = chats.speedup_over(baseline)
    print(
        f"CHATS runs {workload} in {chats.normalized_time(baseline):.2f}x "
        f"the baseline's time ({speedup:.2f}x speedup)."
    )
    if chats.total_aborts < baseline.total_aborts:
        saved = baseline.total_aborts - chats.total_aborts
        print(f"Forwarding turned {saved} aborts into useful overlap.")


if __name__ == "__main__":
    main()
