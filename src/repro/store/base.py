"""The :class:`ResultStore` contract shared by both store backends.

A store is a flat keyed blob space under one cache directory.  Keys are
namespaced paths (``result/<sha>``, ``manifest/<name>``,
``forensics/<sha>``, ``figure/<id>/<sha>``); payloads are opaque bytes —
by convention UTF-8 JSON documents, which is what the
:meth:`ResultStore.get_json` / :meth:`ResultStore.put_json` helpers
speak.

Shared machinery lives here so both backends behave identically where
behaviour is a correctness contract:

* **Corrupt entries are misses, not crashes.**  :meth:`get_json` returns
  ``None`` for an entry whose payload does not parse, warns once per
  process, and counts it on :attr:`ResultStore.counters` — a killed
  writer can never poison later reads (the runner re-simulates instead).

* **Claims.**  :meth:`ResultStore.claim` hands out cross-process
  execution claims (O_EXCL claim files carrying the owner pid), so N
  ``run_many`` processes sharing one cache dir never simulate the same
  key twice; losers :meth:`wait_for` the winner's entry.  Claims from
  dead processes are detected and broken.

* **Metrics.**  Every hit/miss/eviction/corrupt observation increments
  both the store's local :class:`StoreCounters` and — when a fleet
  telemetry session is installed — the ``repro_store_*`` counters of its
  :class:`~repro.obs.telemetry.MetricsRegistry`, labelled by store kind.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

#: Schema tag of the ``stats()`` document (validated by
#: ``scripts/check_store.py``).
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
    """The backend cannot initialise on this cache directory (the
    selection layer degrades to the legacy store with one warning)."""


class MigrationError(StoreError):
    """A legacy entry failed its verified round-trip during migration."""


@dataclass
class StoreCounters:
    """Per-store-instance observability (mirrored into ``repro_store_*``
    telemetry metrics when a session is installed)."""

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


def _telemetry_metrics():
    """The installed telemetry session's registry, or ``None``."""
    from ..obs import telemetry

    session = telemetry.current_session()
    return session.metrics if session is not None else None


_OP_METRIC = {
    "hits": ("repro_store_hits_total", "result-store entry hits"),
    "misses": ("repro_store_misses_total", "result-store entry misses"),
    "puts": ("repro_store_puts_total", "result-store entries written"),
    "deletes": ("repro_store_deletes_total", "result-store entries deleted"),
    "evictions": (
        "repro_store_evictions_total",
        "result-store entries evicted by gc",
    ),
    "corrupt": (
        "repro_store_corrupt_total",
        "unreadable result-store entries treated as misses",
    ),
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

    def release(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass  # already broken / dir removed


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
    convenience layer, corrupt-entry policy, claims, and metric
    fan-out.
    """

    #: Backend name recorded in stats documents and probe spans.
    kind: str = "abstract"

    def __init__(self, root: Path):
        self.root = Path(root)
        self.counters = StoreCounters()
        self._warned_corrupt = False

    # -- raw byte plane (backend-specific) ------------------------------
    def get(self, key: str) -> Optional[bytes]:
        raise NotImplementedError

    def peek(self, key: str) -> Optional[bytes]:
        """Like :meth:`get` but without counter/atime traffic — used by
        :meth:`wait_for` polling so a 20 ms poll loop does not inflate
        the miss metrics.  Backends override with a silent read."""
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

    def close(self) -> None:
        self.flush()

    # -- shared observability -------------------------------------------
    def _note(self, op: str, n: int = 1) -> None:
        setattr(self.counters, op, getattr(self.counters, op) + n)
        metrics = _telemetry_metrics()
        if metrics is not None:
            name, help_text = _OP_METRIC[op]
            metrics.counter(name, help_text, labels=("store",)).inc(
                n, store=self.kind
            )

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

    def has(self, key: str) -> bool:
        return self.get(key) is not None

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
        payload = json.dumps(
            {"key": key, "pid": os.getpid(), "unix": round(time.time(), 3)}
        ).encode("utf-8")
        for _ in range(2):  # second pass after breaking a stale claim
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                holder = self._read_claim(path)
                if holder is None or self._claim_stale(holder):
                    try:
                        path.unlink()
                    except OSError:
                        pass
                    continue
                return None
            except OSError:
                return Claim(key, path, os.getpid())  # unclaimable dir:
                # degrade to "claimed" so the caller still executes
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            return Claim(key, path, os.getpid())
        return None

    def claimed_by_other(self, key: str) -> bool:
        holder = self._read_claim(self._claim_path(key))
        return (
            holder is not None
            and not self._claim_stale(holder)
            and int(holder.get("pid", -1)) != os.getpid()
        )

    @staticmethod
    def _read_claim(path: Path) -> Optional[Dict[str, object]]:
        try:
            return json.loads(path.read_text("utf-8"))
        except (OSError, ValueError):
            try:
                # Unreadable claim file: treat as stale if it exists.
                return {"pid": -1, "unix": 0.0} if path.exists() else None
            except OSError:
                return None

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
# Advisory file locking (used by the sharded backend's shard mutations).
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
    """The canonical ``repro-store/1`` stats document both backends
    emit (and ``scripts/check_store.py`` validates)."""
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
