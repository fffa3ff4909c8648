"""intruder — network intrusion detection (capture / reassembly pipeline).

Two of the three pipeline stages run inside transactions (Section VII):

* **capture** pops a packet descriptor off a shared FIFO queue.  The queue
  pointer is read early and written late in the transaction ("a time gap
  between reading and modifying the structure pointer"), so many threads
  read the same head pointer concurrently — the pathological pattern that
  produces false-positive cycle detections in CHATS (outdated PiC values)
  and starving writers under requester-loses policies.
* **reassembly** inserts the packet's fragment into a shared search tree
  keyed by flow id; every Nth insert triggers a path rebalance whose large
  write set aborts all concurrent traversals.

Completed flows are pushed to a results queue by a third transaction.
The paper reports CHATS losing slightly to the baseline here while PCHATS
wins by over 30%.
"""

from __future__ import annotations

from typing import Generator

from ...mem.memory import MainMemory
from ...sim.ops import Read, Txn, Work, Write
from ..base import Workload, register
from ..structures import NodePool, SimArray, SimBST, SimQueue


@register
class Intruder(Workload):
    name = "intruder"

    #: One rebalance every this many tree inserts (per thread).
    rebalance_every = 7
    #: Simulated decode gap inside the capture transaction.
    capture_gap = 30
    #: Fragments per flow: one result deposit per completed flow.
    fragments_per_flow = 4

    def __init__(self, *, threads: int = 16, seed: int = 1, scale: float = 1.0):
        super().__init__(threads=threads, seed=seed, scale=scale)
        self.num_packets = self.scaled(threads * 22, floor=threads)
        self.packet_queue = SimQueue(
            self.space, self.num_packets + 8, name="capture-q"
        )
        self.result_queue = SimQueue(
            self.space, self.num_packets + 8, name="result-q"
        )
        pool = NodePool(
            self.space, self.num_packets + 16, 4, threads, name="intruder-pool"
        )
        self.tree = SimBST(self.space, pool, name="flows")
        self.processed = SimArray(
            self.space, threads, name="intruder-processed", padded=True
        )
        # Packet ids are unique; flow keys are shuffled so tree inserts
        # spread, with occasional bursts on nearby keys.
        self.packet_ids = list(range(1, self.num_packets + 1))
        self.rng.shuffle(self.packet_ids)

    def setup(self, memory: MainMemory) -> None:
        self.packet_queue.init(memory, self.packet_ids)
        self.result_queue.init(memory, [])
        self.processed.init(memory, [0] * self.num_threads)

    # -- transactions ----------------------------------------------------
    def _capture(self) -> Generator:
        head = yield Read(self.packet_queue.head_addr)
        tail = yield Read(self.packet_queue.tail_addr)
        if head == tail:
            return None
        packet = yield Read(
            self.packet_queue.slots.addr(head % self.packet_queue.capacity)
        )
        # The decode gap: the head pointer stays read-but-unmodified while
        # other threads race to pop the same slot.
        yield Work(self.capture_gap)
        yield Write(self.packet_queue.head_addr, head + 1)
        return packet

    def _reassemble(
        self, tid: int, node: int, packet: int, rebalance: bool
    ) -> Generator:
        inserted = yield from self.tree.insert(node, packet, packet * 5)
        if rebalance:
            yield from self.tree.rebalance_path(packet)
        done = yield Read(self.processed.addr(tid))
        yield Write(self.processed.addr(tid), done + 1)
        return inserted

    def _deposit(self, packet: int) -> Generator:
        ok = yield from self.result_queue.push(packet)
        return ok

    def thread_body(self, tid: int) -> Generator:
        handled = 0
        while True:
            packet = yield Txn(self._capture, (), label="capture")
            if packet is None:
                break
            handled += 1
            # Packet decode on private data before reassembly.
            yield Work(80)
            rebalance = handled % self.rebalance_every == 0
            node = self.tree.pool.reserve(("packet", packet))
            yield Txn(
                self._reassemble, (tid, node, packet, rebalance), label="reassembly"
            )
            if handled % self.fragments_per_flow == 0:
                yield Work(40)
                ok = yield Txn(self._deposit, (packet,), label="deposit")
                assert ok, "result queue overflow"

    # -- oracle ----------------------------------------------------------
    def verify(self, memory: MainMemory) -> None:
        popped = memory.read_word(self.packet_queue.head_addr)
        if popped != self.num_packets:
            raise AssertionError(
                f"captured {popped} packets, expected {self.num_packets}"
            )
        per_thread = [
            memory.read_word(self.processed.addr(t))
            for t in range(self.num_threads)
        ]
        if sum(per_thread) != self.num_packets:
            raise AssertionError("processed-count mismatch")
        # Each thread deposits once per ``fragments_per_flow`` packets it
        # handled.
        results = self.result_queue.final_size(memory)
        expected = sum(n // self.fragments_per_flow for n in per_thread)
        if results != expected:
            raise AssertionError(
                f"deposited {results} results, expected {expected} for "
                f"{self.num_packets} packets"
            )
        keys = self.tree.host_keys(memory)
        if sorted(keys) != sorted(self.packet_ids):
            raise AssertionError(
                f"tree holds {len(keys)} flows, expected {self.num_packets} "
                "distinct packets (duplicate or lost insert)"
            )
        if keys != sorted(keys):
            raise AssertionError("tree violates the BST in-order invariant")
