#!/usr/bin/env python3
"""Microbenchmarks of the simulator's hot primitives.

A developer tool (not CI-gated): times the individual building blocks
that ``perfbench/run.py`` exercises end to end, so a regression it
shows can be bisected to a subsystem without profiling first.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_micro.py [--repeat N]

Each primitive reports operations per second, best of ``--repeat``
timing loops.
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
    from repro.sim.engine import Engine

    engine = Engine()
    remaining = [n]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            engine.schedule(1, tick)

    engine.schedule(1, tick)
    engine.run()


def bench_engine_schedule_cancel(n):
    """Arm-and-cancel churn (validation-timer pattern + compaction)."""
    from repro.sim.engine import Engine

    engine = Engine()
    schedule, cancel = engine.schedule, engine.cancel
    for _ in range(n):
        cancel(schedule(100, lambda: None))


def bench_engine_zero_delay(n):
    """Same-cycle chain through the zero-delay lane (delivery bursts)."""
    from repro.sim.engine import Engine

    engine = Engine()
    remaining = [n]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            engine.schedule(0, tick)

    engine.schedule(1, tick)
    engine.run()


def bench_message(n):
    """Construct a 6-field request (one coherence hop's worth) the way
    the L1 does: through the factory it binds at construction."""
    from types import SimpleNamespace

    from repro.net.messages import DIRECTORY, MessageKind, make_message

    site = SimpleNamespace(Message=make_message)
    for i in range(n):
        site.Message(
            kind=MessageKind.GETS,
            src=0,
            dst=DIRECTORY,
            block=i & 0xFFFF,
            epoch=1,
            req_id=i,
        )


def bench_directory_probe(n):
    """Construct a 16-field probe the way ``Directory._forward`` does,
    through an attribute, so the cost per keyword shows.

    CPython compiles a plain-name call with 16 keywords into a dict
    build and ``CALL_FUNCTION_EX``, which would time the dict, not the
    factory; an attribute call passes its keywords on the stack."""
    from types import SimpleNamespace

    from repro.net.messages import DIRECTORY, MessageKind, make_message

    site = SimpleNamespace(Message=make_message)
    for i in range(n):
        site.Message(
            kind=MessageKind.FWD_GETX,
            src=DIRECTORY,
            dst=1,
            block=i & 0xFFFF,
            requester=0,
            exclusive=True,
            pic=None,
            power=False,
            timestamp=None,
            epoch=1,
            req_id=i,
            can_consume=True,
            is_validation=False,
            non_transactional=False,
            req_produced=False,
            req_consumed=False,
        )


def bench_message_hop(n):
    """One coherence hop end to end: build a message through the bound
    factory, ``Crossbar.send`` it, and let ``Engine.run`` deliver it to
    the destination's handler, which sends the next hop back.  Four
    messages bounce at once, so each simulated cycle fires four."""
    from types import SimpleNamespace

    from repro.net.messages import MessageKind, make_message
    from repro.net.network import Crossbar
    from repro.sim.config import SystemConfig
    from repro.sim.engine import Engine

    engine = Engine()
    net = Crossbar(engine, SystemConfig(num_cores=2))
    site = SimpleNamespace(Message=make_message, send=net.send)
    remaining = [n]

    def bounce(msg):
        remaining[0] -= 1
        if remaining[0] >= 4:
            site.send(
                site.Message(
                    kind=MessageKind.DATA,
                    src=msg.dst,
                    dst=msg.src,
                    block=msg.block,
                    epoch=1,
                    req_id=remaining[0],
                )
            )

    net.connect([[bounce] * len(MessageKind)] * 3)
    for block in range(4):
        site.send(site.Message(kind=MessageKind.GETS, src=0, dst=1, block=block))
    engine.run()


def bench_invalidation_round(n):
    """One invalidation round: a directory whose block has 8 sharers
    handles a GETX from one of them, and ``Engine.run`` delivers the INVs
    to the other 7 cores' no-op handlers.  The round's state is reset
    after each, so every repeat takes the same path."""
    from repro.mem.address import Geometry
    from repro.mem.directory import Directory
    from repro.mem.memory import MainMemory
    from repro.net.messages import DIRECTORY, MessageKind, make_message
    from repro.net.network import Crossbar
    from repro.sim.config import SystemConfig
    from repro.sim.engine import Engine

    engine = Engine()
    config = SystemConfig(num_cores=8)
    net = Crossbar(engine, config)
    directory = Directory(engine, config, MainMemory(Geometry()), net)

    def ignore(msg):
        pass

    net.connect([[ignore] * len(MessageKind)] * 8 + [directory._handlers])
    entry = directory._entry(1)
    entry.sharers = set(range(8))
    getx = make_message(
        kind=MessageKind.GETX, src=0, dst=DIRECTORY, block=1, epoch=1, req_id=1
    )
    handle = directory._handlers[MessageKind.GETX.idx]
    run = engine.run
    for _ in range(n):
        handle(getx)
        run()
        entry.busy = False
        entry.inv_round = None


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


def _filled_memory():
    """A committed image with 64 written blocks of 8 words."""
    from repro.mem.address import Geometry
    from repro.mem.memory import MainMemory

    memory = MainMemory(Geometry())
    for addr in range(0, 64 * 64, 8):
        memory.write_word(addr, addr)
    return memory


def bench_holder_payload(n):
    """The payload of a holder's SpecResp: ``SpeculativeStore.block_value``
    of a block the attempt read but did not write, so the value comes
    from committed memory past an overlay holding one written block."""
    from repro.mem.memory import SpeculativeStore

    store = SpeculativeStore(_filled_memory())
    store.write_word(63 * 64, 1)
    block_value = store.block_value
    for i in range(n):
        block_value(i & 31)


def bench_directory_grant(n):
    """The payload of a directory Data/DataE grant from memory:
    ``MainMemory.block_value`` of a written block."""
    block_value = _filled_memory().block_value
    for i in range(n):
        block_value(i & 63)


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


def bench_holder_resolve(n):
    """CHATS holder conflict resolution: ``policy.resolve`` on an INV
    from a chained requester below a chained holder that read the block.

    This is rule (ii) of the PiC table, which leaves the holder's
    register unchanged, so every repeat takes the same path: the shared
    guards, the VSB membership test, the Rrestrict/W probe and the PiC
    decision."""
    from repro.htm.txstate import TxState
    from repro.mem.address import Geometry
    from repro.mem.memory import MainMemory
    from repro.net.messages import DIRECTORY, MessageKind, make_message
    from repro.sim.config import table2_config
    from repro.systems import paper
    from repro.systems.compose import make_policy

    htm = table2_config(paper.CHATS)
    holder = TxState(
        core_id=0, epoch=1, memory=MainMemory(Geometry()), htm=htm
    )
    holder.track_read(42)
    holder.pic.value = 20
    msg = make_message(
        kind=MessageKind.INV,
        src=DIRECTORY,
        dst=0,
        block=42,
        requester=1,
        exclusive=True,
        pic=10,
        epoch=1,
        req_id=1,
        can_consume=True,
    )

    def no_inflight_write(block):
        return False

    resolve = make_policy(htm).resolve
    for _ in range(n):
        resolve(holder, msg, no_inflight_write)


BENCHES = (
    ("engine run loop (delay-1 chain)", bench_engine_throughput, 200_000),
    ("engine schedule+cancel churn", bench_engine_schedule_cancel, 200_000),
    ("engine zero-delay lane chain", bench_engine_zero_delay, 200_000),
    ("message construct", bench_message, 200_000),
    ("directory probe construct (16 fields)", bench_directory_probe, 200_000),
    ("message hop (construct, send, deliver)", bench_message_hop, 200_000),
    ("invalidation round (8 sharers, 7 INVs)", bench_invalidation_round, 50_000),
    ("L1 cache hit lookup", bench_cache_hit, 500_000),
    ("speculative store write+read", bench_spec_store, 200_000),
    ("holder SpecResp payload (store block_value)", bench_holder_payload, 200_000),
    ("directory data grant (memory block_value)", bench_directory_grant, 200_000),
    ("probe emit (one subscriber)", bench_probe_emit, 200_000),
    ("CHATS holder resolve (rule ii, INV)", bench_holder_resolve, 200_000),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    for name, fn, n in BENCHES:
        rate = timed(fn, n, args.repeat)
        print(f"{name:<46s} {rate:>14,.0f} ops/s")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
