#!/usr/bin/env python3
"""Contention study: how each HTM system degrades as contention rises.

Runs the two llb microbenchmark flavours (low/high contention) and cadd
under all six systems and prints execution time, abort rate, and
forwarding effectiveness side by side — the experiment behind the paper's
Section VII microbenchmark discussion ("we state the limits on CHATS with
its high contention version").

Usage::

    python examples/contention_study.py [scale]
"""

import sys

from repro import paper_systems, run_workload

WORKLOADS = ("llb-l", "llb-h", "cadd")


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.4

    for workload in WORKLOADS:
        print(f"=== {workload} (scale {scale}) ===")
        baseline = None
        header = (
            f"{'system':<18s} {'norm.time':>9s} {'aborts':>7s} "
            f"{'aborts/commit':>13s} {'forwards':>9s} {'fwd-survive':>11s}"
        )
        print(header)
        print("-" * len(header))
        for system in paper_systems():
            r = run_workload(workload, system, scale=scale)
            if baseline is None:
                baseline = r
            fwd_total = (
                r.stats.forwarder_committed + r.stats.forwarder_aborted
            )
            survive = (
                f"{r.stats.forwarder_committed / fwd_total:.0%}"
                if fwd_total
                else "—"
            )
            print(
                f"{system.name:<18s} "
                f"{r.normalized_time(baseline):>9.3f} "
                f"{r.total_aborts:>7d} "
                f"{r.abort_ratio:>13.2f} "
                f"{r.stats.spec_forwards:>9d} "
                f"{survive:>11s}"
            )
        print()

    print(
        "Reading the table: CHATS keeps llb-l almost conflict-free by\n"
        "chaining list updates; llb-h (every thread mutating everything)\n"
        "shows its limit — extra serialization aborts — yet committed\n"
        "producers still beat the requester-wins baseline.  cadd's blind\n"
        "write + long read tail is the ideal forwarding pattern."
    )


if __name__ == "__main__":
    main()
