"""The parts of the result store that do not depend on its on-disk
format: the store's errors and counters, cross-process execution
claims, the claims lock and atomic file writes.
:class:`~repro.store.result_store.ResultStore` is built from them.

* **Claims.**  :meth:`ResultStore.claim
  <repro.store.result_store.ResultStore.claim>` hands out cross-process
  execution claims, so N ``run_many`` processes sharing one cache dir
  never simulate the same key twice; losers wait for the winner's entry.
  A claim file is written whole to a temp file and hard-linked into
  place, so it never exists without its owner's pid and token.  Claims
  from dead processes are broken, and a claim is released only by the
  claim whose token it carries; both happen under one lock on the
  claims directory, the store's only lock.

* **Counters.**  Every hit/miss/corrupt lookup and every
  put/delete/eviction increments the store's :class:`StoreCounters`.
"""

from __future__ import annotations

import json
import os
import secrets
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

#: Schema tag of the ``stats()`` document (validated by
#: ``scripts/check_doc.py store``).
STORE_SCHEMA = "repro-store/2"

#: Claim files older than this are considered abandoned even when the
#: owner pid cannot be probed (e.g. pid recycled by another user).
CLAIM_TTL_SECONDS = 3600.0

#: Deadlock backstop of ``ResultStore.wait_for``: how long a waiter
#: polls a key another live process holds the claim on.
WAIT_TIMEOUT_SECONDS = 300.0


class StoreError(Exception):
    """Base class for store failures the caller should see."""


class StoreInitError(StoreError):
    """The store cannot open on this cache directory (``repro`` reports
    it and exits 2)."""


@dataclass
class StoreCounters:
    """Per-store-instance observability.  Each counted
    ``ResultStore.load`` adds one to exactly one of ``hits``,
    ``misses`` and ``corrupt``."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    deletes: int = 0
    evictions: int = 0
    corrupt: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.deletes = 0
        self.evictions = 0
        self.corrupt = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "deletes": self.deletes,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }


@dataclass(frozen=True)
class Claim:
    """An exclusive cross-process right to compute one key.

    Created by ``ResultStore.claim``; the owner must
    :meth:`release` it after storing the result (or on failure) so
    waiters unblock.  A claim whose owner died is *stale* and can be
    broken by the next claimant.
    """

    key: str
    path: Path
    pid: int
    token: str

    def release(self) -> None:
        """Delete the claim file if it still carries this claim's token;
        a successor's claim (ours was broken as stale) is left alone."""
        try:
            with _claims_lock(self.path.parent):
                holder = _read_claim(self.path)
                if holder is not None and holder.get("token") == self.token:
                    self.path.unlink()
        except OSError:
            pass  # claims dir removed or unwritable


def _read_claim(path: Path) -> Optional[Dict[str, object]]:
    """The claim file's content; ``None`` when there is no claim file."""
    try:
        return json.loads(path.read_text("utf-8"))
    except (OSError, ValueError):
        try:
            # Unreadable claim file: treat as stale if it exists.
            return {"pid": -1, "unix": 0.0} if path.exists() else None
        except OSError:
            return None


def _publish_claim(path: Path, payload: bytes, token: str) -> bool:
    """Hard-link a fully written claim file into place at ``path``;
    ``False`` when a claim file already exists there."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{token}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.link(tmp, path)
        return True
    except FileExistsError:
        return False
    finally:
        try:
            tmp.unlink()
        except OSError:
            pass


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user pid
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return True
    return True


# ----------------------------------------------------------------------
# The claims lock: serialises breaking and releasing claims.
# ----------------------------------------------------------------------
try:  # pragma: no cover - import probe
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX
    _fcntl = None


@contextmanager
def _claims_lock(claims_dir: Path) -> Iterator[None]:
    """Hold the exclusive lock on ``claims_dir``.

    ``fcntl.flock`` on ``claims/LOCK`` (the kernel releases it when its
    holder dies, so a crashed claimant never wedges the others); a
    best-effort mkdir spinlock where there is no ``fcntl``.  It never
    nests.
    """
    claims_dir.mkdir(parents=True, exist_ok=True)
    path = claims_dir / "LOCK"
    if _fcntl is None:  # pragma: no cover - non-POSIX
        deadline = time.monotonic() + 60.0
        while True:
            try:
                os.mkdir(path.with_suffix(".lckdir"))
                break
            except FileExistsError:
                if time.monotonic() >= deadline:
                    raise StoreError(
                        f"timed out waiting for lock {path}"
                    ) from None
                time.sleep(0.005)
        try:
            yield
        finally:
            os.rmdir(path.with_suffix(".lckdir"))
        return
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        _fcntl.flock(fd, _fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # closing the descriptor drops the flock


def atomic_write_bytes(path: Union[str, Path], payload: bytes) -> None:
    """Temp-file + ``os.replace`` write: readers never see a torn file,
    and a killed writer leaves only an ignorable ``*.tmp``.  The temp
    name is unique per write, so concurrent writers of one path never
    share one."""
    tmp = f"{path}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
    try:
        fh = open(tmp, "wb")
    except FileNotFoundError:
        os.makedirs(os.path.dirname(tmp), exist_ok=True)
        fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
