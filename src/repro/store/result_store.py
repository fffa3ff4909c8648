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
* **Each read is one counted lookup**: exactly one of ``hits``,
  ``misses`` or ``corrupt``.
* **A store that opens but cannot be written runs compute-only**:
  :meth:`ResultStore.save` drops the write.

Layout under the cache directory:

.. code-block:: text

    <cache_dir>/store/
      META.json                      layout schema
      entries/<key>.rec              one record file per key; each ``/``
                                     in a key is a directory level

Record format (little-endian)::

    magic "RST2" | u32 raw_len | u32 crc32(compressed) | zlib(payload)

A write goes to a temp file beside its record and ``os.replace``\\ s it
into place.  The rename is the linearisation point: a reader, which
takes no lock, opens either the old record or the new one, never a torn
one, and a killed writer leaves only ``*.tmp`` litter, which no reader
opens and :meth:`ResultStore.gc` sweeps.  No lock guards entries, and
processes that share a cache directory coordinate through nothing else:
two that compute one key each store the same bytes, so the only cost
is the duplicated work.

A hit sets its record's mtime, the clock :meth:`ResultStore.gc` evicts
by, so eviction is least-recently-used whichever process made
the read.
"""

from __future__ import annotations

import json
import os
import secrets
import struct
import time
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar, Union

#: Schema tag of the ``stats()`` document (validated by
#: ``scripts/check_doc.py store``).
STORE_SCHEMA = "repro-store/2"

#: How old a ``*.tmp`` file must be before :meth:`ResultStore.gc` takes
#: it for a killed writer's litter; a younger one may be a live put
#: about to be renamed into place.
TMP_GRACE_SECONDS = 3600.0

#: Layout version of META.json (not the stats document).
LAYOUT_SCHEMA = "repro-store-layout/2"

#: The segment layout older code wrote; its keys can never hit now.
_OLD_LAYOUT_SCHEMA = "repro-store-layout/1"

_MAGIC = b"RST2"
_HEADER = struct.Struct("<4sII")  # magic, raw_len, crc32 of the zlib bytes
_SUFFIX = ".rec"


T = TypeVar("T")


class StoreInitError(Exception):
    """The store cannot open on this cache directory (``repro`` reports
    it and exits 2)."""


@dataclass
class StoreCounters:
    """Per-store-instance observability.  Each ``ResultStore.load``
    adds one to exactly one of ``hits``, ``misses`` and ``corrupt``."""

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
    ) -> Optional[T]:
        """The document stored under ``key``, or ``None``.

        Parses the payload, checks that its ``schema`` tag is ``schema``
        and returns ``decode(doc)``, or the parsed dict when ``decode``
        is omitted.  ``decode`` rejects a document it cannot use by
        raising ``AttributeError``, ``KeyError``, ``TypeError`` or
        ``ValueError``.  An entry that fails any step is a corrupt miss,
        never an exception.  Counts exactly one of ``hits``, ``misses``
        or ``corrupt``, and a hit marks the record as just used for
        :meth:`gc`.
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

        Only a temp file older than :data:`TMP_GRACE_SECONDS` is litter:
        a younger one may be another process's put about to be renamed
        into place."""
        cutoff = time.time() - TMP_GRACE_SECONDS
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
