"""PowerTM token manager (Dice, Herlihy, Kogan — reference [12]).

The runtime guarantees at most one *power* (elevated-priority) transaction
system-wide.  A core requests the token after its conflict-abort threshold
is reached; requests queue FIFO and the token is granted when released.
Conflicts involving a power transaction are always resolved in its favour
(see :class:`repro.systems.priority.PowerPriority`, used by PowerTM and
``PCHATS``).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional


class PowerTokenManager:
    """FIFO arbiter for the single power token."""

    def __init__(self) -> None:
        self._holder: Optional[int] = None
        self._queue: Deque[tuple] = deque()
        self.grants: int = 0

    @property
    def holder(self) -> Optional[int]:
        return self._holder

    def request(self, core_id: int, granted: Callable[[], None]) -> None:
        """Ask for the token; ``granted`` fires (possibly immediately) when
        this core becomes the power transaction."""
        if self._holder == core_id:
            granted()
            return
        if self._holder is None and not self._queue:
            self._holder = core_id
            self.grants += 1
            granted()
            return
        if any(cid == core_id for cid, _ in self._queue):
            raise RuntimeError(f"core {core_id} already queued for the token")
        self._queue.append((core_id, granted))

    def release(self, core_id: int) -> None:
        """Commit (or final failure) of the power transaction."""
        if self._holder != core_id:
            raise RuntimeError(
                f"core {core_id} released a token held by {self._holder}"
            )
        self._holder = None
        if self._queue:
            next_core, granted = self._queue.popleft()
            self._holder = next_core
            self.grants += 1
            granted()
