"""The hybrid-fallback system family.

The paper's fallback path is a single global lock whose eager
subscription aborts *every* running hardware transaction the moment one
give-up transaction acquires it (Section V-C) — total serialization.
These systems swap the spec's fallback layer for ``"hybrid"``: a give-up
transaction re-executes as instrumented software that runs concurrently
with hardware transactions, in the style of hybrid TMs (Brown & Ravi,
"On the Cost of Concurrency in Hybrid Transactional Memory").

Mechanics (see :class:`~repro.htm.fallback.OwnershipTable` and the
slow-path driver in :mod:`repro.sim.core`):

* the slow path acquires an exclusive per-block *ownership record* at
  encounter time, buffers writes in a redo log, and publishes at commit
  through ordinary coherence stores;
* hardware transactions check the ownership records on every access and
  abort with the ``hybrid-slowpath`` cause when they touch an owned
  block — the instrumentation cost hardware pays for the concurrency;
* slow-path/slow-path conflicts release everything and retry after
  backoff, so ownership waits never form a cycle.

The trade-off this family exposes: fallback entries no longer serialize
the machine, but every orec acquisition costs cycles and every
hardware/software collision burns a hardware abort.
"""

from __future__ import annotations

from .spec import ForwardClass, SystemSpec, register

HYBRID_BE = register(
    SystemSpec(
        name="hybrid-be",
        label="Hybrid-BE",
        policy="requester-wins",
        fallback="hybrid",
        retries=6,
    )
)

HYBRID_CHATS = register(
    SystemSpec(
        name="hybrid-chats",
        label="Hybrid-CHATS",
        policy="speculates-pic",
        fallback="hybrid",
        retries=6,
        forward_class=ForwardClass.R_RESTRICT_W,
        vsb_size=4,
        validation_interval=50,
    )
)
