"""Position in Chain (PiC) register — the heart of CHATS (Sections III-B,
IV-C).

Each core has a small (5-bit) register encoding its transaction's position
in the chain of speculative forwardings.  The register holds either an
integer in ``[0, limit)`` or the reserved *unset* encoding (``None`` here,
the all-ones pattern in hardware).  The invariant maintained is:

    a producer's PiC is strictly greater than the PiC of every transaction
    that has consumed speculative data from it.

Conflict-time comparisons of the (possibly stale) remote PiC against the
local PiC decide between requester-speculates and requester-wins so that
this invariant — and therefore acyclicity — is preserved whenever the
exchanged PiCs are current.  Stale exchanges can still create cycles; those
are caught by the validation-time check (``local >= remote`` aborts the
validating consumer).

The holder-side decision, :meth:`PiCRegister.forward_pic`, mutates the
register: it re-anchors ``value`` in place when forwarding and returns
only the PiC to stamp on the ``SpecResp`` (``None`` for requester-wins),
so resolving a conflict allocates no decision record.
"""

from __future__ import annotations

from typing import Optional


class PiCRegister:
    """The per-core PiC register plus the Cons bit."""

    __slots__ = ("_limit", "_init", "value", "cons")

    def __init__(self, limit: int, init: int):
        if not 0 <= init < limit:
            raise ValueError("initial PiC must lie within the range")
        self._limit = limit
        self._init = init
        self.value: Optional[int] = None
        #: Cons bit: the transaction holds speculative data pending
        #: validation (Section IV).  While set, the PiC must not grow.
        self.cons: bool = False

    @property
    def limit(self) -> int:
        return self._limit

    @property
    def init(self) -> int:
        return self._init

    def reset(self) -> None:
        """Transaction abort or commit: PiC returns to the unset encoding."""
        self.value = None
        self.cons = False

    def clear_cons(self) -> None:
        """All speculative data validated; the PiC itself stays valid until
        commit as the transaction may still be a producer (Section IV-B)."""
        self.cons = False

    # ------------------------------------------------------------------
    # Holder-side decision (Fig. 3 cases).
    # ------------------------------------------------------------------
    def forward_pic(self, remote: Optional[int]) -> Optional[int]:
        """Resolve a conflicting request given the requester's PiC.

        Implements the five cases of Section IV-C; overflow/underflow of
        either side's required update resolves to requester-wins.  When
        the holder may forward, the register is re-anchored in place
        where the case requires (the decision *is* the hardware update)
        and the PiC to stamp on the ``SpecResp`` is returned.  ``None``
        means requester-wins, and then the register is left unchanged.
        """
        local = self.value
        if remote is None:
            # Fig. 3A (two unconnected transactions: the holder anchors
            # the chain at the mid-range initial value) and Fig. 3B
            # (chained holder keeps its PiC).  The unchained requester
            # adopts one below the stamped PiC, so its underflow is
            # checked here on its behalf.
            pic = self._init if local is None else local
            if pic == 0:
                return None
            self.value = pic
            return pic
        if local is not None:
            if remote < local:
                # Rule (ii): the requester already sits below us in the
                # chain; forwarding cannot create a cycle and nothing
                # changes.
                return local
            # The holder would need to raise its PiC above the
            # requester's.  That is only safe when it is not consuming
            # unvalidated data (else it could climb past a producer).
            if self.cons:
                # Fig. 3D/3E: requester-wins.
                return None
        # Fig. 3C (unchained holder hooks in above the requester) and
        # Fig. 3F (validated holder re-anchors above the requester).
        new_local = remote + 1
        if new_local >= self._limit:
            return None
        self.value = new_local
        return new_local

    # ------------------------------------------------------------------
    # Requester-side update on SpecResp receipt.
    # ------------------------------------------------------------------
    def adopt_from_spec_resp(self, message_pic: Optional[int]) -> None:
        """Consume a SpecResp: set our PiC below the producer's if we are
        not already part of a chain, and raise the Cons bit.

        A ``None`` message PiC marks a *power* producer (PCHATS): power
        transactions sit above every chain and consumers keep their PiC.
        """
        if message_pic is not None and self.value is None:
            new_value = message_pic - 1
            if new_value < 0:
                raise ValueError(
                    "underflow on SpecResp adoption; the holder must have "
                    "refused to forward"
                )
            self.value = new_value
        self.cons = True

    def validation_check(self, message_pic: Optional[int]) -> bool:
        """Validation-time cycle check (Section IV-B).

        Returns True when the transaction must abort: the response carries
        a PiC not above our own, revealing a cycle created by a stale PiC
        exchange.  Responses without a PiC (committed/non-speculative
        producers, power producers) never trip the check.
        """
        if message_pic is None or self.value is None:
            return False
        return self.value >= message_pic
