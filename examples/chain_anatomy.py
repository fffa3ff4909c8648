#!/usr/bin/env python3
"""Anatomy of a forwarding chain: watch CHATS work, message by message.

Builds a three-transaction producer→consumer→consumer scenario with the
:class:`~repro.workloads.scripted.ScriptedWorkload` helper, subscribes to
the simulator's probe bus to print every coherence message touching the
contended block, and annotates the PiC values as the chain forms:

* T0 writes the block and lingers — it becomes the producer (PiC 15).
* T1 reads it mid-transaction — the directory forwards the request to T0,
  which answers with a SpecResp instead of aborting; T1 adopts PiC 14 and
  buffers the pristine copy in its VSB.
* T1's validation requests poll the block until T0 commits; then a real
  exclusive response validates the speculation and T1 commits after T0 —
  commit order follows the chain, with no dedicated ordering messages.

Usage::

    python examples/chain_anatomy.py
"""

from repro.net.messages import DIRECTORY
from repro.obs.events import MsgSent
from repro.sim.config import SystemConfig, table2_config
from repro.sim.ops import Read, Txn, Work, Write
from repro.sim.simulator import Simulator
from repro.workloads.scripted import ScriptedWorkload

HOT = 0x40_0000  # the contended block
OUT1 = 0x41_0000
OUT2 = 0x42_0000


def producer():
    def body():
        yield Write(HOT, 7)  # final value, written immediately
        yield Work(800)  # ...but the transaction keeps running

    yield Txn(body, ())


def consumer(out, delay):
    def thread():
        yield Work(delay)

        def body():
            v = yield Read(HOT)
            yield Work(40)
            yield Write(out, v * 10)

        yield Txn(body, ())

    return thread


def name_of(node: int) -> str:
    return "DIR" if node == DIRECTORY else f"T{node}"


def main() -> None:
    wl = ScriptedWorkload(
        [producer, consumer(OUT1, 150), consumer(OUT2, 300)],
        check=lambda m: m.read_word(OUT1) == 70 and m.read_word(OUT2) == 70,
    )
    sim = Simulator(
        wl,
        htm=table2_config("chats"),
        config=SystemConfig(num_cores=3),
    )

    hot_block = wl.space.geometry.block_of(HOT)

    # Every ``Crossbar.send`` emits a ``MsgSent`` probe event, so a bus
    # subscriber sees the complete traffic.
    def trace_message(event) -> None:
        if not isinstance(event, MsgSent) or event.block != hot_block:
            return
        extras = []
        if event.pic is not None:
            extras.append(f"PiC={event.pic}")
        if event.is_validation:
            extras.append("validation")
        if event.action:
            extras.append(event.action)
        print(
            f"  cycle {event.cycle:5d}  "
            f"{name_of(event.src):>3s} -> {name_of(event.dst):<3s} "
            f"{event.msg_kind:<9s} {' '.join(extras)}"
        )

    sim.probe.subscribe(trace_message)
    try:
        print("Coherence traffic on the contended block:")
        result = sim.run()
    finally:
        sim.probe.unsubscribe(trace_message)

    print()
    print(f"run finished at cycle {result.cycles}")
    print(f"speculative forwards : {sim.stats.spec_forwards}")
    print(f"validations          : {sim.stats.validations_succeeded} succeeded")
    print(f"aborts               : {result.total_aborts}")
    print(
        "final memory         : "
        f"HOT={sim.memory.read_word(HOT)}, "
        f"OUT1={sim.memory.read_word(OUT1)}, OUT2={sim.memory.read_word(OUT2)}"
    )
    print()
    print(
        "Note the SpecResp answers (PiC=15) instead of aborts, the Cancel\n"
        "messages that leave directory state untouched, and the validation\n"
        "GETX polls that only succeed once the producer has committed."
    )


if __name__ == "__main__":
    main()
