"""The :class:`ResultStore` contract: the part of the result store that
does not depend on its on-disk format.

A store is a flat keyed blob space under one cache directory.  Keys are
namespaced paths (``result/<sha>``, ``forensics/<sha>``,
``figure/<id>/<sha>``); payloads are opaque bytes —
by convention UTF-8 JSON documents, which is what the
:meth:`ResultStore.get_json` / :meth:`ResultStore.put_json` helpers
speak.  :class:`~repro.store.sharded.ShardedStore` supplies the byte
plane; this module supplies the rest:

* **Corrupt entries are misses, not crashes.**  :meth:`get_json` returns
  ``None`` for an entry whose payload does not parse, warns once per
  process, and counts it on :attr:`ResultStore.counters` — a killed
  writer can never poison later reads (the runner re-simulates instead).

* **Claims.**  :meth:`ResultStore.claim` hands out cross-process
  execution claims, so N ``run_many`` processes sharing one cache dir
  never simulate the same key twice; losers :meth:`wait_for` the
  winner's entry.  A claim file is written whole to a temp file and
  hard-linked into place, so it never exists without its owner's pid
  and token.  Claims from dead processes are broken, and a claim is
  released only by the claim whose token it carries; both happen under
  one lock on the claims directory.

* **Counters.**  Every hit/miss/put/delete/eviction/corrupt observation
  increments the store's :class:`StoreCounters`.
"""

from __future__ import annotations

import json
import os
import secrets
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: Schema tag of the ``stats()`` document (validated by
#: ``scripts/check_doc.py store``).
STORE_SCHEMA = "repro-store/1"

#: Claim files older than this are considered abandoned even when the
#: owner pid cannot be probed (e.g. pid recycled by another user).
CLAIM_TTL_SECONDS = 3600.0

#: Deadlock backstop of :meth:`ResultStore.wait_for`: how long a waiter
#: polls a key another live process holds the claim on.
WAIT_TIMEOUT_SECONDS = 300.0


class StoreError(Exception):
    """Base class for store failures the caller should see."""


class StoreInitError(StoreError):
    """The store cannot open on this cache directory (``repro`` reports
    it and exits 2)."""


@dataclass
class StoreCounters:
    """Per-store-instance observability."""

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

    Created by :meth:`ResultStore.claim`; the owner must
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


def _claims_lock(claims_dir: Path) -> "FileLock":
    """The lock that serialises breaking and releasing claims."""
    return FileLock(claims_dir / "LOCK")


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


class ResultStore:
    """Abstract keyed blob store over one cache directory.

    Subclasses implement the raw byte plane (:meth:`get`, :meth:`put`,
    :meth:`delete`, :meth:`keys`, :meth:`stats`, :meth:`verify`,
    :meth:`compact`, :meth:`gc`); this base provides the JSON
    convenience layer, corrupt-entry policy, claims, and the
    :class:`StoreCounters`.
    """

    #: Backend name recorded in stats documents and corrupt-entry
    #: warnings.
    kind: str = "abstract"

    def __init__(self, root: Path):
        self.root = Path(root)
        self.counters = StoreCounters()
        self._warned_corrupt = False

    # -- raw byte plane (format-specific) -------------------------------
    def get(self, key: str) -> Optional[bytes]:
        raise NotImplementedError

    def peek(self, key: str) -> Optional[bytes]:
        """Like :meth:`get` but without counter/atime traffic — used by
        :meth:`wait_for` polling so a 20 ms poll loop does not inflate
        the miss counter.  Backends override with a silent read."""
        return self.get(key)

    def put(self, key: str, payload: bytes) -> None:
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        raise NotImplementedError

    def keys(self, prefix: str = "") -> List[str]:
        raise NotImplementedError

    def stats(self) -> Dict[str, object]:
        raise NotImplementedError

    def verify(self) -> List[str]:
        """Read back every entry; returns human-readable problems."""
        raise NotImplementedError

    def compact(self) -> Dict[str, object]:
        """Reclaim dead space; returns a summary dict."""
        raise NotImplementedError

    def gc(self, max_bytes: int) -> List[str]:
        """Evict least-recently-read entries until the store's payload
        footprint fits ``max_bytes``; returns the evicted keys."""
        raise NotImplementedError

    def flush(self) -> None:
        """Persist any write-behind state (lazy atimes)."""

    # -- shared observability -------------------------------------------
    def _note(self, op: str, n: int = 1) -> None:
        setattr(self.counters, op, getattr(self.counters, op) + n)

    def note_corrupt(self, key: str, reason: str) -> None:
        """Count (and warn once per process about) an unreadable entry.

        Public so the runner can report *structurally* corrupt payloads
        (valid JSON that no longer matches the result schema) through
        the same channel as byte-level corruption."""
        self._note("corrupt")
        if not self._warned_corrupt:
            self._warned_corrupt = True
            warnings.warn(
                f"{self.kind} store: unreadable entry {key!r} treated as a "
                f"cache miss ({reason}); further corrupt entries are "
                "counted silently — run `repro cache verify`",
                RuntimeWarning,
                stacklevel=3,
            )

    # -- JSON convenience ------------------------------------------------
    def get_json(self, key: str) -> Optional[object]:
        """Parsed JSON payload of ``key``; corrupt entries are a
        warn-once miss (never an exception)."""
        raw = self.get(key)
        if raw is None:
            return None
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self.note_corrupt(key, f"JSON parse failed: {exc}")
            return None

    def put_json(self, key: str, obj: object) -> None:
        self.put(
            key,
            json.dumps(obj, sort_keys=True).encode("utf-8"),
        )

    # -- claims ----------------------------------------------------------
    def _claims_dir(self) -> Path:
        raise NotImplementedError

    def _claim_path(self, key: str) -> Path:
        import hashlib

        name = hashlib.sha1(key.encode("utf-8")).hexdigest()
        return self._claims_dir() / f"{name}.claim"

    def claim(self, key: str) -> Optional[Claim]:
        """Try to acquire the exclusive right to compute ``key``.

        Returns a :class:`Claim` on success and ``None`` when another
        *live* process holds it.  A stale claim (dead owner, or older
        than :data:`CLAIM_TTL_SECONDS`) is broken and re-acquired.
        """
        path = self._claim_path(key)
        token = secrets.token_hex(8)
        payload = json.dumps(
            {
                "key": key,
                "pid": os.getpid(),
                "unix": round(time.time(), 3),
                "token": token,
            }
        ).encode("utf-8")
        claim = Claim(key, path, os.getpid(), token)
        for _ in range(2):  # second pass after breaking a stale claim
            try:
                if _publish_claim(path, payload, token):
                    return claim
                holder = _read_claim(path)
                if holder is None:
                    continue  # released meanwhile
                if not self._claim_stale(holder):
                    return None
                self._break_stale(path, holder)
            except OSError:
                # Unclaimable dir: degrade to "claimed" so the caller
                # still executes.
                return claim
        return None

    def _break_stale(self, path: Path, holder: Dict[str, object]) -> None:
        """Delete the stale claim ``holder`` unless, under the claims
        lock, ``path`` no longer carries it (a rival broke it and
        claimed the key in the meantime)."""
        with _claims_lock(path.parent):
            if _read_claim(path) == holder:
                path.unlink()

    def claimed_by_other(self, key: str) -> bool:
        holder = _read_claim(self._claim_path(key))
        return (
            holder is not None
            and not self._claim_stale(holder)
            and int(holder.get("pid", -1)) != os.getpid()
        )

    @staticmethod
    def _claim_stale(holder: Dict[str, object]) -> bool:
        try:
            pid = int(holder.get("pid", -1))
            unix = float(holder.get("unix", 0.0))
        except (TypeError, ValueError):
            return True
        if time.time() - unix > CLAIM_TTL_SECONDS:
            return True
        return not _pid_alive(pid)

    def wait_for(
        self,
        key: str,
        *,
        timeout: float = WAIT_TIMEOUT_SECONDS,
        poll: float = 0.02,
    ) -> Optional[bytes]:
        """Block until ``key`` appears (another process is computing it
        under a claim) or its claim disappears/goes stale.

        Returns the payload, or ``None`` when the claim was abandoned
        without a stored result (the caller should compute the key
        itself).  The timeout is a deadlock backstop, not a contract.
        """
        deadline = time.monotonic() + timeout
        while True:
            payload = self.peek(key)
            if payload is not None:
                return payload
            if not self.claimed_by_other(key):
                # Owner released (or died) without storing: one last
                # look to close the release-after-put race.
                return self.peek(key)
            if time.monotonic() >= deadline:
                return None
            time.sleep(poll)


# ----------------------------------------------------------------------
# Advisory file locking (shard mutations; breaking and releasing claims).
# ----------------------------------------------------------------------
try:  # pragma: no cover - import probe
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX
    _fcntl = None


@dataclass
class FileLock:
    """Advisory exclusive lock on a lock file.

    ``fcntl.flock`` where available (kernel-released on process death —
    a crashed writer never wedges the shard); a best-effort
    mkdir-spinlock elsewhere.  Reentrant within one instance.
    """

    path: Path
    timeout: float = 60.0
    _fd: Optional[int] = field(default=None, repr=False)
    _depth: int = field(default=0, repr=False)

    def acquire(self) -> "FileLock":
        if self._depth:
            self._depth += 1
            return self
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if _fcntl is not None:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            _fcntl.flock(fd, _fcntl.LOCK_EX)
            self._fd = fd
        else:  # pragma: no cover - non-POSIX fallback
            lockdir = self.path.with_suffix(".lckdir")
            deadline = time.monotonic() + self.timeout
            while True:
                try:
                    os.mkdir(lockdir)
                    break
                except FileExistsError:
                    if time.monotonic() >= deadline:
                        raise StoreError(
                            f"timed out waiting for lock {lockdir}"
                        ) from None
                    time.sleep(0.005)
        self._depth = 1
        return self

    def release(self) -> None:
        if not self._depth:
            return
        self._depth -= 1
        if self._depth:
            return
        if _fcntl is not None:
            if self._fd is not None:
                _fcntl.flock(self._fd, _fcntl.LOCK_UN)
                os.close(self._fd)
                self._fd = None
        else:  # pragma: no cover - non-POSIX fallback
            try:
                os.rmdir(self.path.with_suffix(".lckdir"))
            except OSError:
                pass

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Temp-file + ``os.replace`` write: readers never see a torn file,
    and a killed writer leaves only an ignorable ``*.tmp``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def namespace_of(key: str) -> str:
    """First path segment of a namespaced key (``result/<sha>`` →
    ``result``)."""
    return key.split("/", 1)[0] if "/" in key else ""


def namespace_histogram(keys) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for key in keys:
        ns = namespace_of(key) or "(flat)"
        out[ns] = out.get(ns, 0) + 1
    return dict(sorted(out.items()))


def stats_document(
    store: "ResultStore",
    *,
    entries: int,
    shards: int,
    segments: int,
    logical_bytes: int,
    physical_bytes: int,
    namespaces: Dict[str, int],
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The canonical ``repro-store/1`` stats document the store
    emits (and ``scripts/check_doc.py store`` validates)."""
    doc: Dict[str, object] = {
        "schema": STORE_SCHEMA,
        "kind": store.kind,
        "root": str(store.root),
        "entries": entries,
        "shards": shards,
        "segments": segments,
        "logical_bytes": logical_bytes,
        "physical_bytes": physical_bytes,
        "namespaces": namespaces,
        "counters": store.counters.to_dict(),
    }
    if extra:
        doc.update(extra)
    return doc
