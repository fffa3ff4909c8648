"""Forward-eligibility rules for speculative data (Section VI-D).

Three configurations control which blocks a conflicting holder may answer
with a ``SpecResp``:

* ``R/W`` (*forward all*) — read-set and write-set blocks;
* ``W`` (*forward written*) — write-set blocks only;
* ``Rrestrict/W`` — read and write-set blocks, except blocks the local core
  has an in-flight exclusive request (GETX) for, i.e. blocks known to be
  invalidated shortly by a local store.  This is the paper's best
  configuration (Fig. 8).

Independent of the class, a block that the holder itself received
speculatively and has not yet validated can never be forwarded: the holder
is not the coherence owner and "the core does not observe coherence traffic
for them" (Section IV-A).
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

from .spec import FORWARD_R_RESTRICT_W, FORWARD_RW, FORWARD_W, ForwardClass

if TYPE_CHECKING:  # pragma: no cover
    from ..htm.txstate import TxState

#: Predicate provided by the L1 controller: does the local core have an
#: in-flight exclusive (GETX/upgrade) request for the given block?
InflightWriteProbe = Callable[[int], bool]


def block_is_forwardable(
    forward_class: ForwardClass,
    holder: "TxState",
    block: int,
    inflight_write: InflightWriteProbe,
) -> bool:
    """Whether ``holder`` may forward ``block`` speculatively."""
    if holder.vsb.contains(block):
        # Speculatively received, pending validation: never re-forwarded.
        return False
    written = holder.writes(block)
    read = holder.reads(block)
    if not (written or read):
        # Not a conflicting block at all; the caller should not have asked.
        return False
    if forward_class is FORWARD_W:
        return written
    if forward_class is FORWARD_RW:
        return True
    if forward_class is FORWARD_R_RESTRICT_W:
        # The restriction applies to the *read* set (the R in Rrestrict):
        # a read block with an in-flight local GETX is about to be
        # speculatively written, so its current value would be poison.
        # Written blocks always forward — the speculative store already
        # contains the transaction's own pending stores.
        return written or not inflight_write(block)
    raise ValueError(f"unknown forward class {forward_class!r}")
