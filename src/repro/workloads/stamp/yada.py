"""yada — Delaunay mesh refinement with long read-modify-write transactions.

STAMP's yada retriangulates a mesh: each long-running transaction visits a
set of triangle records around a "bad" element, reads them, and rewrites a
handful of them exactly once.  The paper highlights its *migration*
pattern: "whenever a transaction modifies a memory location, it would not
modify it again", so a modified block can be forwarded to concurrent
readers working on neighbouring triangles — CHATS cuts yada's
conflict-induced aborts roughly in half.

We model the mesh as an array of triangle records (one cache block each:
generation counter, quality word, and payload).  A refinement transaction
claims a cavity of records (pre-drawn, overlapping across threads),
reads each record's neighbourhood, then bumps each record's generation
exactly once.
"""

from __future__ import annotations

from typing import Generator, List

from ...mem.memory import MainMemory
from ...sim.ops import Read, Txn, Work, Write
from ..base import Workload, register
from ..structures import SimArray


@register
class Yada(Workload):
    name = "yada"

    #: Triangle-record words: [generation, quality, 6 payload words].
    record_words = 8
    #: Records rewritten per refinement (the cavity size).
    cavity_size = 6
    #: Extra records read-only per refinement (the cavity's border).
    border_size = 6

    def __init__(self, *, threads: int = 16, seed: int = 1, scale: float = 1.0):
        super().__init__(threads=threads, seed=seed, scale=scale)
        # Every cavity samples cavity_size + border_size distinct records.
        self.num_records = self.scaled(
            192,
            floor=max(
                threads * self.cavity_size, self.cavity_size + self.border_size
            ),
        )
        self.refinements_per_thread = self.scaled(12)
        self.records = SimArray(
            self.space, self.num_records * self.record_words, name="mesh"
        )
        # Pre-drawn cavities: distinct records within a transaction,
        # overlapping freely across transactions/threads.
        self.cavities: List[List[List[int]]] = []
        for _ in range(threads):
            thread_cavities = []
            for _ in range(self.refinements_per_thread):
                cavity = self.rng.sample(
                    range(self.num_records), self.cavity_size + self.border_size
                )
                thread_cavities.append(cavity)
            self.cavities.append(thread_cavities)

    def _gen_addr(self, record: int) -> int:
        return self.records.addr(record * self.record_words)

    def _quality_addr(self, record: int) -> int:
        return self.records.addr(record * self.record_words + 1)

    def setup(self, memory: MainMemory) -> None:
        for r in range(self.num_records):
            memory.write_word(self._gen_addr(r), 0)
            memory.write_word(self._quality_addr(r), (r * 7) % 31)

    # -- the refinement transaction ---------------------------------------
    def _refine(self, cavity: List[int]) -> Generator:
        writable = cavity[: self.cavity_size]
        border = cavity[self.cavity_size :]
        # Long read phase: inspect the whole cavity and its border.
        acc = 0
        for record in cavity:
            q = yield Read(self._quality_addr(record))
            acc += q
            yield Work(3)
        for record in border:
            g = yield Read(self._gen_addr(record))
            acc += g
        # Write phase: each record's generation bumped exactly once — the
        # migration pattern (no further stores to the same location).
        for record in writable:
            g = yield Read(self._gen_addr(record))
            yield Write(self._gen_addr(record), g + 1)
            yield Work(2)
        return acc

    def thread_body(self, tid: int) -> Generator:
        for cavity in self.cavities[tid]:
            yield Work(20)  # cavity discovery on private data
            yield Txn(self._refine, (cavity,), label="refine")

    # -- oracle ----------------------------------------------------------
    def verify(self, memory: MainMemory) -> None:
        total = sum(
            memory.read_word(self._gen_addr(r)) for r in range(self.num_records)
        )
        expected = (
            self.num_threads * self.refinements_per_thread * self.cavity_size
        )
        if total != expected:
            raise AssertionError(
                f"generation bumps {total} != {expected} "
                "(a lost or duplicated cavity update)"
            )
