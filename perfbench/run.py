#!/usr/bin/env python3
"""End-to-end benchmark of the CHATS simulator, with a per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-chats-llbh --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Workloads: ``sim-chats-llbh``, ``sim-be-kmeansh``, ``report-sweep``, or
``all`` (each in its own process).  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` makes the separate traced run and
reports the per-layer metrics.  A table goes to stderr; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit), preceded by one line recording the
resolved backend, the Python version and the CPU count.

The program is imported from the checkout's ``src``; every ``REPRO_*``
variable is replaced by the benchmark's pinned values, and every store
lives in a scratch directory inside the checkout that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("sim-chats-llbh", "sim-be-kmeansh", "report-sweep")
PINNED = HERE / "pinned.json"


SEEDS_PER_SIM_RUN = 8


def workload_seeds(workload: str, seed: int) -> list:
    """The pinned workload seeds that benchmark seed ``seed`` selects:
    ``SEEDS_PER_SIM_RUN`` consecutive ones for a simulation, whose run
    cycles through them so its medians average over inputs; one for the
    sweep, whose every pass already runs 306 configs."""
    seeds = sorted(int(s) for s in json.loads(PINNED.read_text("utf-8"))[workload])
    count = 1 if workload == "report-sweep" else SEEDS_PER_SIM_RUN
    return [seeds[(seed + i) % len(seeds)] for i in range(count)]


def pin_environment(workload_seed: int, cache_dir: Path) -> None:
    """Replace every ``REPRO_*`` variable with the pinned values; pool
    workers and child processes inherit them."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(
        REPRO_SCALE="0.2",
        REPRO_THREADS="4",
        REPRO_SEED=str(workload_seed),
        REPRO_WORKERS="2",
        REPRO_BACKEND="python",
        REPRO_STORE="sharded",
        REPRO_CACHE_DIR=str(cache_dir),
    )


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    try:
        wseeds = workload_seeds(workload, seed)
        wseed = wseeds[0]
        pin_environment(wseed, work / "cache")
        import_program()
        import measure
        from repro import accel

        with accel.use("python"):
            if workload in measure.SIMS:
                if trace:
                    outcome = measure.trace_sim(workload, wseed)
                else:
                    outcome = measure.measure_sim(workload, wseeds, seconds, work)
            elif trace:
                outcome = measure.trace_sweep(wseed, work)
            else:
                outcome = measure.measure_sweep(wseed, seconds, work)
            backend = accel.resolved_backend()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    tally = outcome.tally
    print(f"{workload} seed={seed} (workload seeds {wseeds}) trace={int(trace)}", file=sys.stderr)
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<36} {_format(value):>14} {unit}", file=sys.stderr)
    for name, value in outcome.notes.items():
        print(f"  ({name:<34} {_format(value):>14})", file=sys.stderr)
    print(f"  failed/attempted: {tally.failed}/{tally.attempted}", file=sys.stderr)
    for error in tally.errors[:5]:
        print(f"  error: {error}", file=sys.stderr)
    info = {
        "workload": workload,
        "seed": seed,
        "workload_seeds": wseeds,
        "backend": backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print(json.dumps({"environment": info}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; the last line sums them."""
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        if proc.returncode != 0:
            print(f"perfbench: {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        print(proc.stdout, end="")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics[f"{workload}/{name}"] = metric
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-child", nargs=2, metavar=("WORKLOAD", "WORKLOAD_SEED"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.cold_child:
        # One-shot simulation process for the cold figures of a sim workload.
        name, wseed = args.cold_child[0], int(args.cold_child[1])
        pin_environment(wseed, WORK / f"child-{os.getpid()}")
        import_program()
        import measure

        print(json.dumps(measure.cold_child(name, wseed)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
