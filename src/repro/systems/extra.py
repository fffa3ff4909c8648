"""Non-paper systems, registered purely through the registry API.

These two entries are the registry's proof of openness: neither required
touching ``mem/``, ``core/validation.py``, or ``sim/`` — each names a
conflict policy the simulator can already execute.

* ``stall`` — a pure requester-stalls NACK baseline: conflicting
  requesters are NACKed and retry after ``nack_retry_delay`` cycles,
  tempered by wound-wait on ideal timestamps (an older requester aborts
  the holder) so stalls can never form a wait cycle.  The classic
  contention-management counterpoint to both requester-wins and
  speculative forwarding.
* ``chats-ts`` — CHATS with the Position-in-Chain register replaced by
  ideal timestamps: the holder forwards only to strictly younger
  requesters, which keeps chains acyclic by construction without any
  bounded register or re-anchoring protocol (``speculates-timestamp``).
  SpecResps carry no PiC, so consumers escape pathological waits through
  the naive validation budget.  An upper bound on what PiC's 5 bits
  approximate.
"""

from __future__ import annotations

from .spec import ForwardClass, SystemSpec, register

STALL = register(
    SystemSpec(
        name="stall",
        label="Stall (NACK)",
        policy="requester-stalls",
        retries=6,
    )
)

CHATS_TS = register(
    SystemSpec(
        name="chats-ts",
        label="CHATS-TS",
        policy="speculates-timestamp",
        retries=32,
        forward_class=ForwardClass.R_RESTRICT_W,
        vsb_size=4,
        validation_interval=50,
    )
)
