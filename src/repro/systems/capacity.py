"""The capacity-limited system family.

The paper's evaluation assumes *perfect* read-set signatures and
unbounded write sets (Section VI-B) — commercial HTMs have neither.
These systems put hardware capacity bounds back in, as ordinary
Table-II-style knobs on :class:`~repro.systems.spec.SystemSpec`:

* ``read_set_limit`` — a bounded-entry exact signature
  (:class:`~repro.htm.signature.BoundedPerfectSignature`): the first read
  past the budget raises a ``capacity`` abort and the transaction
  serializes immediately (the RTM "retry not helpful" rule).
* ``write_set_limit`` — the same bound on the speculative write set.
* ``signature_bits`` — a Bloom read signature
  (:class:`~repro.htm.signature.BloomSignature`) whose false positives
  surface as spurious conflicts instead of capacity aborts: the classic
  signature trade-off (aliasing vs. overflow).

None of this touches the paper six — their specs leave all three knobs
``None`` and take the unbounded code paths, byte-identically (pinned by
the golden digests).  The ``figcap`` experiment sweeps ``read_set_limit``
to show capacity aborts falling monotonically as the budget grows.
"""

from __future__ import annotations

from .spec import ForwardClass, SystemSpec, register

#: Default set bounds: sized like a small victim-buffer-backed tracking
#: structure — big enough that short transactions never notice, small
#: enough that pointer-chasing workloads overflow at realistic rates.
#: (The eager fallback-lock subscription consumes one read-set entry.)
DEFAULT_READ_SET_LIMIT = 64
DEFAULT_WRITE_SET_LIMIT = 32

#: Read-set budgets swept by the ``figcap`` experiment.
CAPACITY_SWEEP = (4, 8, 16, 32, 64)

CAP_BE = register(
    SystemSpec(
        name="cap-be",
        label="Cap-BE",
        policy="requester-wins",
        retries=6,
        read_set_limit=DEFAULT_READ_SET_LIMIT,
        write_set_limit=DEFAULT_WRITE_SET_LIMIT,
    )
)

CAP_CHATS = register(
    SystemSpec(
        name="cap-chats",
        label="Cap-CHATS",
        policy="speculates-pic",
        retries=6,
        forward_class=ForwardClass.R_RESTRICT_W,
        vsb_size=4,
        validation_interval=50,
        read_set_limit=DEFAULT_READ_SET_LIMIT,
        write_set_limit=DEFAULT_WRITE_SET_LIMIT,
    )
)

BLOOM_BE = register(
    SystemSpec(
        name="bloom-be",
        label="Bloom-BE",
        policy="requester-wins",
        retries=6,
        signature_bits=256,
    )
)
