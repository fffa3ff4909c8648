#!/usr/bin/env python3
"""Microbenchmarks of the simulator's hot primitives.

A developer tool (not CI-gated): times the individual building blocks
that ``perfbench/run.py`` exercises end to end, so a regression it
shows can be bisected to a subsystem without profiling first.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_micro.py [--repeat N]

Each primitive reports operations per second, best of ``--repeat``
timing loops.  The two halves of a paired case (the old form of a
primitive and the form the simulator uses now) take turns, one timing
loop each, so both see the same phase of a noisy host.
"""

from __future__ import annotations

import argparse
import functools
import time
from collections import deque

from repro.net.network import Crossbar

# Module globals, as the simulator's handlers see them: ``bounce`` and the
# two load cases below read these through a global load.
from repro.net.messages import DATA, GETS, GETX, MessageKind


def timed(cases, repeat):
    """Best-of-``repeat`` ops/sec of each ``(name, fn, n)`` case, where
    ``fn(n)`` performs ``n`` ops.  The cases' timing loops interleave:
    every repeat times each case once, in order."""
    best = [float("inf")] * len(cases)
    for _ in range(repeat):
        for i, (_, fn, n) in enumerate(cases):
            start = time.perf_counter()
            fn(n)
            best[i] = min(best[i], time.perf_counter() - start)
    return [n / seconds for (_, _, n), seconds in zip(cases, best)]


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
    """Construct a transactional request the way
    ``L1Controller._send_request`` does: through the factory it binds at
    construction, every field positional."""
    from types import SimpleNamespace

    from repro.net.messages import DIRECTORY, make_message

    site = SimpleNamespace(Message=make_message)
    for i in range(n):
        site.Message(
            GETS, 0, DIRECTORY, i & 0xFFFF, 1, i, None, None, False, None,
            3, False, 7, True, False, False, False, False,
        )


def bench_unblock_keywords(n):
    """A holder's 9-field UNBLOCK through a keyword call, as the L1
    built it before ``make_message``'s parameters were ordered by
    message shape."""
    from types import SimpleNamespace

    from repro.net.messages import DIRECTORY, UNBLOCK, make_message

    site = SimpleNamespace(Message=make_message)
    for i in range(n):
        site.Message(
            kind=UNBLOCK,
            src=1,
            dst=DIRECTORY,
            block=i & 0xFFFF,
            requester=0,
            exclusive=True,
            epoch=1,
            req_id=i,
            action="xfer",
        )


def bench_unblock_positional(n):
    """The same UNBLOCK as ``L1Controller._unblock`` builds it: a
    positional prefix (``data`` spelled out as ``None``)."""
    from types import SimpleNamespace

    from repro.net.messages import DIRECTORY, UNBLOCK, make_message

    site = SimpleNamespace(Message=make_message)
    for i in range(n):
        site.Message(
            UNBLOCK, 1, DIRECTORY, i & 0xFFFF, 1, i, None, 0, True, "xfer"
        )


def bench_probe_keywords(n):
    """A 16-field probe through a keyword call, as ``Directory._forward``
    built it before, through an attribute, so the cost per keyword shows.

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


def bench_directory_probe(n):
    """The same probe as ``Directory._forward`` builds it: all 18
    fields positional (``data`` and ``action`` spelled out as
    ``None``)."""
    from types import SimpleNamespace

    from repro.net.messages import DIRECTORY, MessageKind, make_message

    site = SimpleNamespace(Message=make_message)
    for i in range(n):
        site.Message(
            MessageKind.FWD_GETX, DIRECTORY, 1, i & 0xFFFF, 1, i, None, 0,
            True, None, None, False, None, True, False, False, False, False,
        )


def bench_message_hop(n):
    """One coherence hop end to end: build a message through the bound
    factory, ``Crossbar.send`` it, and let ``Engine.run`` deliver it to
    the destination's handler, which sends the next hop back.  Four
    messages bounce at once, so each simulated cycle fires four."""
    from types import SimpleNamespace

    from repro.net.messages import make_message
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
                    DATA, msg.dst, msg.src, msg.block, 1, remaining[0]
                )
            )

    net.connect([[bounce] * len(MessageKind)] * 3)
    for block in range(4):
        site.send(site.Message(GETS, 0, 1, block))
    engine.run()


class _NoEngine:
    """An engine that drops what is scheduled, so a send bench times the
    crossbar's own work and queues nothing."""

    now = 0

    def schedule(self, delay, fn, msg):
        pass


class _RunningTotalsCrossbar(Crossbar):
    """A crossbar whose ``send`` keeps three running totals (flits,
    messages, flits by kind) behind a data/control branch, as
    ``Crossbar.send`` did before it counted deliveries per kind."""

    __slots__ = ("_flits", "_messages", "_by_idx")

    def __init__(self, engine, config):
        super().__init__(engine, config)
        self._flits = self._messages = 0
        self._by_idx = [0] * len(MessageKind)

    def send(self, msg, extra_delay=0):
        kind = msg.kind
        flits = self._data_flits if kind.carries_data else self._control_flits
        self._flits += flits
        self._messages += 1
        self._by_idx[kind.idx] += flits
        if self._probe._subscribers:
            self._emit_traced(msg, msg.dst)
        self._schedule(
            self._link_latency + extra_delay,
            self._tables[msg.dst][kind.idx],
            msg,
        )


def _bench_send(net, n):
    """Send ``n`` messages, data and control alternating, through
    ``net``."""
    from repro.net.messages import make_message

    def ignore(msg):
        pass

    net.connect([[ignore] * len(MessageKind)] * 3)
    messages = [make_message(DATA, 0, 1, 1), make_message(GETS, 1, 0, 1)]
    send = net.send
    for i in range(n):
        send(messages[i & 1])


def bench_send_running_totals(n):
    from repro.sim.config import SystemConfig

    _bench_send(_RunningTotalsCrossbar(_NoEngine(), SystemConfig(num_cores=2)), n)


def bench_send_per_kind_count(n):
    """The same sends through ``Crossbar.send``: one increment of the
    kind's delivery count."""
    from repro.sim.config import SystemConfig

    _bench_send(Crossbar(_NoEngine(), SystemConfig(num_cores=2)), n)


def _one_event_cycles(n, swap):
    """``n`` one-event cycles, each event scheduling the next cycle's
    only event, as a delay-1 chain does, through the lane handling of
    ``Engine.run`` alone.  ``swap=False`` seeds the lane as it did before
    the swap: the next-cycle list is copied into a deque lane, then
    cleared, and the lane is drained with ``popleft``.  ``swap=True`` as
    it does now: the drained list lane and the next-cycle list trade
    places, and the lane is walked with one list iterator."""

    class Queue:
        __slots__ = ("next",)

    queue = Queue()
    queue.next = []
    remaining = [n]

    def tick():
        remaining[0] -= 1
        if remaining[0]:
            queue.next.append([tick, ()])

    queue.next.append([tick, ()])
    if swap:
        lane = []
        while queue.next:
            lane.clear()
            lane, queue.next = queue.next, lane
            for entry in lane:
                fn = entry[0]
                entry[0] = None
                fn(*entry[1])
    else:
        lane = deque()
        popleft = lane.popleft
        nxt = queue.next
        while nxt:
            lane.extend(nxt)
            nxt.clear()
            while lane:
                entry = popleft()
                fn = entry[0]
                entry[0] = None
                fn(*entry[1])


def bench_cycle_deque_lane(n):
    _one_event_cycles(n, swap=False)


def bench_cycle_swapped_lane(n):
    _one_event_cycles(n, swap=True)


def bench_invalidation_round(n):
    """One invalidation round: a directory whose block has 8 sharers
    handles a GETX from one of them, and ``Engine.run`` delivers the INVs
    to the other 7 cores' no-op handlers.  The round's state is reset
    after each, so every repeat takes the same path."""
    from repro.mem.address import Geometry
    from repro.mem.directory import Directory
    from repro.mem.memory import MainMemory
    from repro.net.messages import DIRECTORY, make_message
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
    entry = directory._blocks[1]
    entry.sharers = set(range(8))
    getx = make_message(
        kind=GETX, src=0, dst=DIRECTORY, block=1, epoch=1, req_id=1
    )
    handle = directory._handlers[GETX.idx]
    run = engine.run
    for _ in range(n):
        handle(getx)
        run()
        entry.busy = False
        entry.inv_round = None


def bench_enum_member_load(n):
    """``kind is MessageKind.DATA`` inside a function: on Python 3.10
    and 3.11 each member load through its class runs ``EnumType``'s
    ``__getattr__`` hook."""
    kind = GETS
    for _ in range(n):
        kind is MessageKind.DATA


def bench_module_constant_load(n):
    """``kind is DATA``: the same test through the module constant that
    the simulator's event path uses (one global load)."""
    kind = GETS
    for _ in range(n):
        kind is DATA


class _KeywordOutstanding:
    """An MSHR record with a Python ``__init__``, as ``_Outstanding`` was
    before it got its constructor function."""

    __slots__ = (
        "block",
        "exclusive",
        "transactional",
        "epoch",
        "is_validation",
        "on_value",
        "on_message",
        "write_value",
        "addr",
        "cas",
    )

    def __init__(
        self,
        block,
        exclusive,
        transactional,
        epoch,
        is_validation,
        on_value=None,
        on_message=None,
        write_value=None,
        addr=0,
        cas=None,
    ):
        self.block = block
        self.exclusive = exclusive
        self.transactional = transactional
        self.epoch = epoch
        self.is_validation = is_validation
        self.on_value = on_value
        self.on_message = on_message
        self.write_value = write_value
        self.addr = addr
        self.cas = cas


def bench_mshr_record_class(n):
    """A transactional load miss's MSHR record through a keyword call to
    a class with a Python ``__init__``: CPython packs the keywords into
    a dict and binds them again."""
    for i in range(n):
        _KeywordOutstanding(
            block=i,
            exclusive=False,
            transactional=True,
            epoch=1,
            is_validation=False,
            on_value=print,
            addr=i,
        )


def bench_mshr_record_function(n):
    """The same record through ``_make_outstanding``, the L1's plain
    constructor function (``object.__new__`` plus 10 slot stores),
    called positionally as the L1 calls it."""
    from repro.mem.l1controller import _make_outstanding

    for i in range(n):
        _make_outstanding(i, False, True, 1, False, print, None, None, i)


class _OpSite:
    """A core-shaped caller: ``issue_*`` hands an L1-shaped function one
    op's completion callback, and that function calls it at once."""

    def complete(self, epoch, value):
        pass

    def issue_closure(self, epoch, value, l1):
        l1(lambda v: self.complete(epoch, v), value)

    def issue_bound(self, epoch, value, l1):
        l1(self.complete, epoch, value)


def _l1_value(callback, value):
    callback(value)


def _l1_epoch_value(callback, epoch, value):
    callback(epoch, value)


def bench_op_callback_closure(n):
    """One op's completion through a lambda built per op that forwards
    to the core's method with the captured epoch."""
    issue = _OpSite().issue_closure
    for i in range(n):
        issue(1, i, _l1_value)


def bench_op_callback_bound(n):
    """The same completion through the core's bound method, with the L1
    passing the epoch."""
    issue = _OpSite().issue_bound
    for i in range(n):
        issue(1, i, _l1_epoch_value)


@functools.cache
def _kmeans_points(n):
    """A kmeans-h workload and ``n`` of its points, cycled (built once,
    outside every timing loop but the first)."""
    from repro.workloads.base import make_workload

    wl = make_workload("kmeans-h", threads=16, seed=1, scale=0.5)
    points = [p for thread_points in wl.points for p in thread_points]
    return wl, [points[i % len(points)] for i in range(n)]


def bench_kmeans_nearest_loop(n):
    """kmeans' nearest centre as the workload found it before: a full
    squared distance to each of kmeans-h's 6 centres, a generator over
    the 16 coordinates each."""
    wl, points = _kmeans_points(n)
    centres = wl.num_centers
    for point in points:
        best, best_d = 0, None
        for c in range(centres):
            pos = (c * 100) // centres + 50 // centres
            d = sum((x - pos) ** 2 for x in point)
            if best_d is None or d < best_d:
                best, best_d = c, d


def bench_kmeans_nearest_closed(n):
    """The same assignment through the workload's ``_nearest``: one sum
    of the point, then two integer terms per centre."""
    wl, points = _kmeans_points(n)
    nearest = wl._nearest
    for point in points:
        nearest(point)


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


#: One tuple per row group: a single case, or the two halves of a
#: paired case, whose timing loops interleave.
BENCHES = (
    (("engine run loop (delay-1 chain)", bench_engine_throughput, 200_000),),
    (("engine schedule+cancel churn", bench_engine_schedule_cancel, 200_000),),
    (("engine zero-delay lane chain", bench_engine_zero_delay, 200_000),),
    (
        ("engine one-event cycles (deque lane copy)", bench_cycle_deque_lane, 200_000),
        ("engine one-event cycles (swapped list lane)", bench_cycle_swapped_lane, 200_000),
    ),
    (("message construct (tx request, positional)", bench_message, 200_000),),
    (
        ("UNBLOCK construct (9 keywords)", bench_unblock_keywords, 200_000),
        ("UNBLOCK construct (positional prefix)", bench_unblock_positional, 200_000),
    ),
    (
        ("directory probe construct (16 keywords)", bench_probe_keywords, 200_000),
        ("directory probe construct (positional)", bench_directory_probe, 200_000),
    ),
    (
        ("crossbar send (three running totals)", bench_send_running_totals, 500_000),
        ("crossbar send (one per-kind count)", bench_send_per_kind_count, 500_000),
    ),
    (("message hop (construct, send, deliver)", bench_message_hop, 200_000),),
    (("invalidation round (8 sharers, 7 INVs)", bench_invalidation_round, 50_000),),
    (
        ("enum member load (kind is MessageKind.DATA)", bench_enum_member_load, 2_000_000),
        ("module constant load (kind is DATA)", bench_module_constant_load, 2_000_000),
    ),
    (
        ("MSHR record (keyword class call)", bench_mshr_record_class, 200_000),
        ("MSHR record (plain function)", bench_mshr_record_function, 200_000),
    ),
    (
        ("op callback (closure per op)", bench_op_callback_closure, 500_000),
        ("op callback (bound method)", bench_op_callback_bound, 500_000),
    ),
    (
        ("kmeans nearest centre (loop)", bench_kmeans_nearest_loop, 20_000),
        ("kmeans nearest centre (closed form)", bench_kmeans_nearest_closed, 20_000),
    ),
    (("L1 cache hit lookup", bench_cache_hit, 500_000),),
    (("speculative store write+read", bench_spec_store, 200_000),),
    (("holder SpecResp payload (store block_value)", bench_holder_payload, 200_000),),
    (("directory data grant (memory block_value)", bench_directory_grant, 200_000),),
    (("probe emit (one subscriber)", bench_probe_emit, 200_000),),
    (("CHATS holder resolve (rule ii, INV)", bench_holder_resolve, 200_000),),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    for cases in BENCHES:
        for (name, _, _), rate in zip(cases, timed(cases, args.repeat)):
            print(f"{name:<46s} {rate:>14,.0f} ops/s")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
