#!/usr/bin/env python3
"""Policy face-off on a custom workload: bring your own transactions.

Shows how to define a workload from scratch with ``ScriptedWorkload`` and
compare conflict-resolution policies on it.  The scenario is a small
"bank": threads transfer between accounts with read-modify-write
transactions, plus one auditor thread that sums all accounts in a single
big-read-set transaction — a classic reader-vs-writers tension:

* requester-wins kills either the auditor or the writers repeatedly;
* CHATS forwards account values to the auditor (read-set forwarding) and
  chains writers, so both sides make progress;
* PowerTM elevates whoever starves.

The conservation oracle (total balance constant) doubles as a
serializability check for every policy.

Usage::

    python examples/policy_faceoff.py
"""

from repro import paper_systems
from repro.sim.config import SystemConfig, table2_config
from repro.sim.ops import Read, Txn, Work, Write
from repro.sim.simulator import Simulator
from repro.workloads.scripted import ScriptedWorkload

NUM_ACCOUNTS = 8
INITIAL = 100
ACCOUNTS = [0x50_0000 + i * 0x1000 for i in range(NUM_ACCOUNTS)]
AUDIT_OUT = 0x60_0000
TRANSFERS_PER_THREAD = 10


def transfer_thread(tid: int):
    """Move money between deterministically chosen account pairs."""

    def thread():
        for i in range(TRANSFERS_PER_THREAD):
            src = (tid + i) % NUM_ACCOUNTS
            dst = (tid + i * 3 + 1) % NUM_ACCOUNTS
            if src == dst:
                dst = (dst + 1) % NUM_ACCOUNTS

            def body(s=src, d=dst):
                a = yield Read(ACCOUNTS[s])
                yield Work(20)
                b = yield Read(ACCOUNTS[d])
                yield Write(ACCOUNTS[s], a - 5)
                yield Write(ACCOUNTS[d], b + 5)

            yield Txn(body, ())
            yield Work(30)

    return thread


def auditor_thread():
    """Repeatedly sum every account atomically."""

    def thread():
        for _ in range(6):
            def body():
                total = 0
                for addr in ACCOUNTS:
                    v = yield Read(addr)
                    total += v
                    yield Work(2)
                yield Write(AUDIT_OUT, total)

            yield Txn(body, ())
            yield Work(50)

    return thread


def main() -> None:
    expected_total = NUM_ACCOUNTS * INITIAL

    def check(memory) -> bool:
        total = sum(memory.read_word(a) for a in ACCOUNTS)
        audit = memory.read_word(AUDIT_OUT)
        return total == expected_total and audit == expected_total

    header = (
        f"{'system':<18s} {'cycles':>8s} {'aborts':>7s} {'forwards':>9s} "
        f"{'fallbacks':>9s} {'conserved':>9s}"
    )
    print("Bank workload: 4 transfer threads + 1 auditor, 8 accounts")
    print(header)
    print("-" * len(header))

    for system in paper_systems():
        wl = ScriptedWorkload(
            [transfer_thread(t) for t in range(4)] + [auditor_thread()],
            initial={addr: INITIAL for addr in ACCOUNTS},
            check=check,
        )
        sim = Simulator(
            wl,
            htm=table2_config(system),
            config=SystemConfig(num_cores=5),
        )
        result = sim.run()
        total = sum(sim.memory.read_word(a) for a in ACCOUNTS)
        print(
            f"{system.name:<18s} {result.cycles:>8d} "
            f"{result.total_aborts:>7d} {sim.stats.spec_forwards:>9d} "
            f"{sim.stats.tx_fallback_commits:>9d} "
            f"{'yes' if total == expected_total else 'NO!':>9s}"
        )

    print()
    print(
        "Every policy must conserve the total (atomicity); they differ in\n"
        "how much concurrency survives the reader/writer tension."
    )


if __name__ == "__main__":
    main()
