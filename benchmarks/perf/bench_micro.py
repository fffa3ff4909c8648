#!/usr/bin/env python3
"""Microbenchmarks of the simulator's hot primitives.

A developer tool (not CI-gated): times the individual building blocks
that ``repro bench`` exercises end-to-end, so a regression flagged by
the suite can be bisected to a subsystem without profiling first.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_micro.py [--repeat N]
    PYTHONPATH=src python benchmarks/perf/bench_micro.py --backend compiled

Each primitive reports operations per second, best of ``--repeat``
timing loops.  ``--backend`` selects the engine/message implementation
under test (the same selection layer as ``repro run --backend``), so a
compiled-vs-python primitive delta can be read off directly.
"""

from __future__ import annotations

import argparse
import time


def timed(fn, n, repeat):
    """Best-of-``repeat`` ops/sec of ``fn(n)`` performing ``n`` ops."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn(n)
        best = min(best, time.perf_counter() - start)
    return n / best


def bench_engine_throughput(n):
    """Schedule + fire n self-rescheduling events (the run-loop cost)."""
    from repro import accel

    engine = accel.make_engine()
    remaining = [n]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            engine.schedule(1, tick)

    engine.schedule(1, tick)
    engine.run()


def bench_engine_schedule_cancel(n):
    """Arm-and-cancel churn (validation-timer pattern + compaction)."""
    from repro import accel

    engine = accel.make_engine()
    for _ in range(n):
        engine.schedule(100, lambda: None).cancel()


def bench_engine_zero_delay(n):
    """Same-cycle chain through the zero-delay lane (delivery bursts)."""
    from repro import accel

    engine = accel.make_engine()
    remaining = [n]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            engine.schedule(0, tick)

    engine.schedule(1, tick)
    engine.run()


def bench_message_pool(n):
    """Construct + release pooled messages (one coherence hop's worth)."""
    from repro import accel
    from repro.net.messages import DIRECTORY, MessageKind

    Message = accel.message_factory()
    for i in range(n):
        msg = Message(
            kind=MessageKind.GETS,
            src=0,
            dst=DIRECTORY,
            block=i & 0xFFFF,
            epoch=1,
            req_id=i,
        )
        msg.release()


def bench_message_retain_release(n):
    """Retain/release ownership churn (the handler-keeps-message path)."""
    from repro import accel
    from repro.net.messages import DIRECTORY, MessageKind

    Message = accel.message_factory()
    for i in range(n):
        msg = Message(
            kind=MessageKind.GETS,
            src=0,
            dst=DIRECTORY,
            block=i & 0xFFFF,
            epoch=1,
            req_id=i,
        )
        msg.retain()
        msg.release()
        msg.release()


def bench_cache_hit(n):
    """Install once, then hot lookups (the L1 hit path)."""
    from repro.mem.cache import L1Cache
    from repro.sim.config import SystemConfig

    cache = L1Cache(SystemConfig())
    for block in range(64):
        cache.install(block, "S")
    lookup = cache.lookup
    for i in range(n):
        lookup(i & 63)


def bench_spec_store(n):
    """Speculative-store writes + reads (the tx data path)."""
    from repro.mem.address import Geometry
    from repro.mem.memory import MainMemory, SpeculativeStore

    store = SpeculativeStore(MainMemory(Geometry()))
    write, read = store.write_word, store.read_word
    for i in range(n):
        addr = (i & 255) * 8
        write(addr, i)
        read(addr)


def bench_probe_emit(n):
    """Construct + emit typed events to one subscriber (the traced path).

    Exercises the copy-on-write subscriber snapshot: emit must iterate
    the stored tuple directly, without a per-event allocation."""
    from repro.obs.events import Commit
    from repro.obs.probe import Probe

    probe = Probe()

    def sink(ev):
        pass

    probe.subscribe(sink)
    emit = probe.emit
    for i in range(n):
        emit(Commit(cycle=i, core=0, epoch=i))


BENCHES = (
    ("engine run loop (delay-1 chain)", bench_engine_throughput, 200_000),
    ("engine schedule+cancel churn", bench_engine_schedule_cancel, 200_000),
    ("engine zero-delay lane chain", bench_engine_zero_delay, 200_000),
    ("message pool construct+release", bench_message_pool, 200_000),
    ("message retain+release churn", bench_message_retain_release, 200_000),
    ("L1 cache hit lookup", bench_cache_hit, 500_000),
    ("speculative store write+read", bench_spec_store, 200_000),
    ("probe emit (one subscriber)", bench_probe_emit, 200_000),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--backend",
        choices=("python", "compiled", "auto"),
        default=None,
        help="engine/message implementation under test "
        "(default: $REPRO_BACKEND or python)",
    )
    args = parser.parse_args(argv)
    from repro import accel

    if args.backend is not None:
        accel.select_backend(args.backend)
    print(f"backend: {accel.resolved_backend()}")
    for name, fn, n in BENCHES:
        rate = timed(fn, n, args.repeat)
        print(f"{name:<36s} {rate:>14,.0f} ops/s")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
