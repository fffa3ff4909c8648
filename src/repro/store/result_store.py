"""``ResultStore``: the result store, one CRC-guarded record file per key.

A flat keyed document space under one cache directory.  Keys are
namespaced paths (``result/<sha>``, ``forensics/<sha>``,
``figure/<id>/<sha>``); each payload is a UTF-8 JSON document carrying a
``schema`` tag.  :meth:`ResultStore.save` writes one and
:meth:`ResultStore.load` reads one back, so every caller shares one
policy:

* **A corrupt entry is a counted miss, never a crash or a result.**  A
  record that fails its magic, CRC or length check, that does not
  parse, whose ``schema`` tag is not the one asked for, or that the
  caller's ``decode`` rejects is counted as ``corrupt`` and warned about
  once per store; the caller re-computes it.  A killed writer can never
  poison later reads.
* **Each counted read is one lookup**: exactly one of ``hits``,
  ``misses`` or ``corrupt``.
* **A store that opens but cannot be written runs compute-only**:
  :meth:`ResultStore.save` drops the write.

Layout under the cache directory:

.. code-block:: text

    <cache_dir>/store/
      META.json                      layout schema
      claims/                        cross-process execution claims
      entries/<key>.rec              one record file per key; each ``/``
                                     in a key is a directory level

Record format (little-endian)::

    magic "RST2" | u32 raw_len | u32 crc32(compressed) | zlib(payload)

A write goes to a temp file beside its record and ``os.replace``\\ s it
into place.  The rename is the linearisation point: a reader, which
takes no lock, opens either the old record or the new one, never a torn
one, and a killed writer leaves only ``*.tmp`` litter, which no reader
opens and :meth:`ResultStore.gc` sweeps.  No lock guards entries.

A counted hit sets its record's mtime, the clock :meth:`ResultStore.gc`
evicts by, so eviction is least-recently-used whichever process made
the read.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import struct
import time
import warnings
import zlib
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

from .base import (
    CLAIM_TTL_SECONDS,
    STORE_SCHEMA,
    WAIT_TIMEOUT_SECONDS,
    Claim,
    StoreCounters,
    StoreInitError,
    _claims_lock,
    _pid_alive,
    _publish_claim,
    _read_claim,
    atomic_write_bytes,
)

#: Layout version of META.json (not the stats document).
LAYOUT_SCHEMA = "repro-store-layout/2"

#: The segment layout older code wrote; its keys can never hit now.
_OLD_LAYOUT_SCHEMA = "repro-store-layout/1"

_MAGIC = b"RST2"
_HEADER = struct.Struct("<4sII")  # magic, raw_len, crc32 of the zlib bytes
_SUFFIX = ".rec"


T = TypeVar("T")


def _decode_record(blob: bytes) -> Tuple[Optional[bytes], Optional[str]]:
    """``(payload, None)`` for a sound record, ``(None, reason)`` else."""
    if len(blob) < _HEADER.size:
        return None, "record shorter than its header"
    magic, raw_len, crc = _HEADER.unpack_from(blob)
    stored = blob[_HEADER.size:]
    if magic != _MAGIC or zlib.crc32(stored) != crc:
        return None, "record failed its magic/CRC check"
    try:
        payload = zlib.decompress(stored)
    except zlib.error:
        return None, "record does not decompress"
    if len(payload) != raw_len:
        return None, "record length mismatch"
    return payload, None


class ResultStore:
    """One record file per key under ``<cache_dir>/store/entries``."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.counters = StoreCounters()
        self._warned_corrupt = False
        self.base = self.root / "store"
        self.entries = self.base / "entries"
        self._entries_prefix = f"{self.entries}{os.sep}"
        meta_path = self.base / "META.json"
        if self.base.exists() and not self.base.is_dir():
            raise StoreInitError(
                f"{self.base} exists and is not a directory"
            )
        if meta_path.exists():
            try:
                layout = json.loads(meta_path.read_text("utf-8"))["schema"]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise StoreInitError(
                    f"unreadable store meta {meta_path}: {exc}"
                ) from exc
            if layout == _OLD_LAYOUT_SCHEMA:
                raise StoreInitError(
                    f"{self.base} holds a {layout} store: its entries were "
                    "keyed by older code and can never hit, so the "
                    "directory can be deleted"
                )
            if layout != LAYOUT_SCHEMA:
                raise StoreInitError(
                    f"{meta_path} has store layout {layout!r} "
                    f"(this build speaks {LAYOUT_SCHEMA})"
                )
        else:
            try:
                atomic_write_bytes(
                    meta_path,
                    json.dumps(
                        {
                            "schema": LAYOUT_SCHEMA,
                            "created_unix": int(time.time()),
                        },
                        sort_keys=True,
                    ).encode("utf-8")
                    + b"\n",
                )
            except OSError as exc:
                raise StoreInitError(
                    f"cannot initialise the result store under "
                    f"{self.root}: {exc}"
                ) from exc

    # -- paths -----------------------------------------------------------
    def _path(self, key: str) -> str:
        """The record file of ``key``; each ``/`` is a directory level."""
        if any(part in ("", ".", "..") for part in key.split("/")):
            raise ValueError(f"not a store key: {key!r}")
        return self._entries_prefix + key + _SUFFIX

    def _records(self) -> Iterator[Tuple[str, Path]]:
        """``(key, record path)`` for every record on disk."""
        for path in self.entries.rglob("*" + _SUFFIX):
            rel = path.relative_to(self.entries).as_posix()
            yield rel[: -len(_SUFFIX)], path

    # -- byte plane ------------------------------------------------------
    def _read(self, key: str) -> Tuple[Optional[bytes], Optional[str]]:
        """``(payload, None)`` for a stored entry, ``(None, None)`` for a
        missing one and ``(None, reason)`` for a record that fails a
        check.  Counts nothing."""
        try:
            with open(self._path(key), "rb") as fh:
                blob = fh.read()
        except (FileNotFoundError, NotADirectoryError):
            return None, None
        except OSError as exc:
            return None, f"unreadable record: {exc}"
        return _decode_record(blob)

    def peek(self, key: str) -> Optional[bytes]:
        """The raw payload of ``key``, without counting the read (the
        :meth:`wait_for` poll)."""
        return self._read(key)[0]

    def put(self, key: str, payload: bytes) -> None:
        stored = zlib.compress(payload)
        atomic_write_bytes(
            self._path(key),
            _HEADER.pack(_MAGIC, len(payload), zlib.crc32(stored)) + stored,
        )
        self.counters.puts += 1

    def delete(self, key: str) -> bool:
        try:
            os.unlink(self._path(key))
        except (FileNotFoundError, NotADirectoryError):
            return False
        self.counters.deletes += 1
        return True

    def keys(self, prefix: str = "") -> List[str]:
        return sorted(
            key for key, _ in self._records() if key.startswith(prefix)
        )

    # -- documents -------------------------------------------------------
    def load(
        self,
        key: str,
        schema: object,
        decode: Optional[Callable[[Dict], T]] = None,
        *,
        count: bool = True,
    ) -> Optional[T]:
        """The document stored under ``key``, or ``None``.

        Parses the payload, checks that its ``schema`` tag is ``schema``
        and returns ``decode(doc)``, or the parsed dict when ``decode``
        is omitted.  ``decode`` rejects a document it cannot use by
        raising ``AttributeError``, ``KeyError``, ``TypeError`` or
        ``ValueError``.  An entry that fails any step is a corrupt miss,
        never an exception.  Counts exactly one of ``hits``, ``misses``
        or ``corrupt``, and a counted hit marks the record as just used
        for :meth:`gc`; ``count=False`` does neither, for a re-read of a
        key whose lookup the caller has already counted.
        """
        payload, problem = self._read(key)
        doc = None
        if payload is not None:
            try:
                doc = json.loads(payload)
                tag = doc.get("schema") if isinstance(doc, dict) else None
                if tag != schema:
                    raise ValueError(f"schema tag {tag!r} is not {schema!r}")
                if decode is not None:
                    doc = decode(doc)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                doc, problem = None, f"unreadable document: {exc}"
        if count:
            if doc is not None:
                self.counters.hits += 1
                try:
                    os.utime(self._path(key))
                except OSError:
                    pass  # read-only store, or evicted meanwhile
            elif problem is None:
                self.counters.misses += 1
            else:
                self._corrupt(key, problem)
        return doc

    def save(self, key: str, doc: Dict[str, object]) -> None:
        """Store ``doc``, which carries its ``schema`` tag, under
        ``key``.  A store that cannot be written drops it: the caller
        keeps its result, compute-only."""
        try:
            self.put(key, json.dumps(doc, sort_keys=True).encode("utf-8"))
        except OSError:
            pass

    def _corrupt(self, key: str, reason: str) -> None:
        """Count an unreadable entry, and warn about the first one."""
        self.counters.corrupt += 1
        if not self._warned_corrupt:
            self._warned_corrupt = True
            warnings.warn(
                f"result store: unreadable entry {key!r} treated as a "
                f"cache miss ({reason}); further corrupt entries are "
                "counted silently — run `repro cache verify`",
                RuntimeWarning,
                stacklevel=3,
            )

    # -- claims ----------------------------------------------------------
    def _claim_path(self, key: str) -> Path:
        name = hashlib.sha1(key.encode("utf-8")).hexdigest()
        return self.base / "claims" / f"{name}.claim"

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

    # -- maintenance -----------------------------------------------------
    def stats(self) -> Dict[str, object]:
        entries = 0
        logical = 0
        stored = 0
        namespaces: Dict[str, int] = {}
        for key, path in self._records():
            try:
                with open(path, "rb") as fh:
                    header = fh.read(_HEADER.size)
                    stored += os.fstat(fh.fileno()).st_size
            except OSError:
                continue  # evicted meanwhile
            entries += 1
            if len(header) == _HEADER.size:
                logical += _HEADER.unpack(header)[1]
            head, sep, _ = key.partition("/")
            ns = head if sep else "(flat)"
            namespaces[ns] = namespaces.get(ns, 0) + 1
        return {
            "schema": STORE_SCHEMA,
            "root": str(self.root),
            "entries": entries,
            "logical_bytes": logical,
            "stored_bytes": stored,
            "namespaces": dict(sorted(namespaces.items())),
            "counters": self.counters.to_dict(),
        }

    def verify(self) -> List[str]:
        problems: List[str] = []
        for key in self.keys():
            payload, problem = self._read(key)
            if problem is not None:
                problems.append(f"{key}: {problem}")
            elif payload is not None:
                try:
                    json.loads(payload.decode("utf-8"))
                except (ValueError, UnicodeDecodeError) as exc:
                    problems.append(f"{key}: payload is not JSON ({exc})")
        return problems

    def gc(self, max_bytes: int) -> List[str]:
        """Sweep ``*.tmp`` litter from killed writers, then evict the
        least-recently-used records (oldest mtime first) until the
        record files fit ``max_bytes``.

        Only a temp file older than :data:`CLAIM_TTL_SECONDS` is litter:
        a younger one may be another process's put about to be renamed
        into place, or its claim about to be linked."""
        cutoff = time.time() - CLAIM_TTL_SECONDS
        for tmp in self.base.rglob("*.tmp"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
            except OSError:
                pass
        candidates: List[Tuple[int, str, int, Path]] = []
        total = 0
        for key, path in self._records():
            try:
                st = path.stat()
            except OSError:
                continue
            candidates.append((st.st_mtime_ns, key, st.st_size, path))
            total += st.st_size
        evicted: List[str] = []
        for _, key, size, path in sorted(candidates):
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            total -= size
            evicted.append(key)
            self.counters.evictions += 1
        return evicted
