"""``ShardedStore``: the compacting, concurrent-writer result store.

A flat keyed document space under one cache directory.  Keys are
namespaced paths (``result/<sha>``, ``forensics/<sha>``,
``figure/<id>/<sha>``); each payload is a UTF-8 JSON document carrying a
``schema`` tag.  :meth:`ShardedStore.save` writes one and
:meth:`ShardedStore.load` reads one back, so every caller shares one
policy:

* **A corrupt entry is a counted miss, never a crash or a result.**  A
  payload whose segment record fails its CRC, that does not parse, whose
  ``schema`` tag is not the one asked for, or that the caller's
  ``decode`` rejects is counted as ``corrupt`` and warned about once per
  store; the caller re-computes it.  A killed writer can never poison
  later reads.
* **Each counted read is one lookup**: exactly one of ``hits``,
  ``misses`` or ``corrupt``.
* **A store that opens but cannot be written runs compute-only**:
  :meth:`ShardedStore.save` drops the write.

Layout under the cache directory:

.. code-block:: text

    <cache_dir>/store/
      META.json                      layout schema + shard count
      claims/                        cross-process execution claims
      shards/<0..f>/                 16 shards by sha256(key) nibble
        LOCK                         advisory flock guarding mutations
        index.json                   key -> (segment, offset, lengths,
                                     crc32, atime, put_unix)
        seg-<nnnnnn>.seg             append-only segment files

Segment record format (little-endian)::

    magic "RST1" | u32 key_len | u32 stored_len | u32 raw_len | u32 crc
    | key utf-8 | zlib(payload)

``crc`` is the crc32 of the *compressed* bytes, checked on every read;
the key travels in the record so segments are self-describing (a lost
index is rebuildable by scanning).  Writers append under the shard's
``LOCK`` and commit by atomically replacing ``index.json`` — the index
replace is the linearisation point, so readers (which take no lock)
either see the old entry set or the new one, never a torn state.  A
record whose writer died before the index commit is unreferenced
garbage, reclaimed by the next :meth:`ShardedStore.compact`.

Reads stat-check the index before reuse, so cross-process writes become
visible immediately; a read that loses a race against ``compact``
(segment replaced underfoot) reloads the index once and retries.

Eviction (:meth:`gc`) is LRU by *entry* atime with a byte budget:
read atimes accumulate write-behind per process and are folded into the
index on the next locked mutation (put/flush/gc/compact), keeping the
hot read path free of index rewrites.
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
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from .base import (
    CLAIM_TTL_SECONDS,
    STORE_SCHEMA,
    WAIT_TIMEOUT_SECONDS,
    Claim,
    FileLock,
    StoreCounters,
    StoreInitError,
    _claims_lock,
    _pid_alive,
    _publish_claim,
    _read_claim,
    atomic_write_bytes,
)

#: Layout version of META.json / index.json (not the stats document).
LAYOUT_SCHEMA = "repro-store-layout/1"

#: Shard count (sha256 hex nibble).  Fixed at store creation and
#: recorded in META.json.
SHARD_COUNT = 16

#: Roll to a fresh segment file once the active one exceeds this.
SEGMENT_ROLL_BYTES = 4 * 1024 * 1024

_MAGIC = b"RST1"
_HEADER = struct.Struct("<4sIIII")  # magic, key_len, stored_len, raw_len, crc


T = TypeVar("T")


def _shard_of(key: str) -> str:
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[0]


class ShardedStore:
    """Key-prefix-sharded append-only segment store."""

    #: Backend name recorded in stats documents and corrupt-entry
    #: warnings.
    kind = "sharded"

    def __init__(self, root: Path):
        self.root = Path(root)
        self.counters = StoreCounters()
        self._warned_corrupt = False
        self.base = self.root / "store"
        meta_path = self.base / "META.json"
        if self.base.exists() and not self.base.is_dir():
            raise StoreInitError(
                f"{self.base} exists and is not a directory"
            )
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text("utf-8"))
            except (OSError, ValueError) as exc:
                raise StoreInitError(
                    f"unreadable store meta {meta_path}: {exc}"
                ) from exc
            if meta.get("schema") != LAYOUT_SCHEMA:
                raise StoreInitError(
                    f"{meta_path} has store layout {meta.get('schema')!r} "
                    f"(this build speaks {LAYOUT_SCHEMA})"
                )
            self.shard_count = int(meta.get("shards", SHARD_COUNT))
        else:
            self.shard_count = SHARD_COUNT
            try:
                atomic_write_bytes(
                    meta_path,
                    json.dumps(
                        {
                            "schema": LAYOUT_SCHEMA,
                            "shards": self.shard_count,
                            "segment_roll_bytes": SEGMENT_ROLL_BYTES,
                            "created_unix": int(time.time()),
                        },
                        sort_keys=True,
                    ).encode("utf-8")
                    + b"\n",
                )
            except OSError as exc:
                raise StoreInitError(
                    f"cannot initialise sharded store under {self.root}: "
                    f"{exc}"
                ) from exc
        # Per-shard in-process cache: (index dict, index stat signature).
        self._index_cache: Dict[str, Tuple[Dict, Tuple[int, int]]] = {}
        # Write-behind read atimes, folded in on the next locked mutation.
        self._pending_atimes: Dict[str, float] = {}

    # -- paths -----------------------------------------------------------
    def _shard_dir(self, shard: str) -> Path:
        return self.base / "shards" / shard

    def _index_path(self, shard: str) -> Path:
        return self._shard_dir(shard) / "index.json"

    def _lock(self, shard: str) -> FileLock:
        return FileLock(self._shard_dir(shard) / "LOCK")

    # -- index -----------------------------------------------------------
    @staticmethod
    def _empty_index() -> Dict:
        return {"schema": LAYOUT_SCHEMA, "entries": {}, "next_seg": 1}

    def _load_index(self, shard: str, *, fresh: bool = False) -> Dict:
        """Read a shard's index, reusing the in-process copy while the
        file's (mtime_ns, size) signature is unchanged."""
        path = self._index_path(shard)
        try:
            st = path.stat()
            sig = (st.st_mtime_ns, st.st_size)
        except OSError:
            self._index_cache.pop(shard, None)
            return self._empty_index()
        if not fresh:
            cached = self._index_cache.get(shard)
            if cached is not None and cached[1] == sig:
                return cached[0]
        try:
            index = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError):
            # Mid-replace race or torn index: one retry, then empty.
            try:
                index = json.loads(path.read_text("utf-8"))
            except (OSError, ValueError):
                return self._empty_index()
        if not isinstance(index, dict) or "entries" not in index:
            return self._empty_index()
        self._index_cache[shard] = (index, sig)
        return index

    def _write_index(self, shard: str, index: Dict) -> None:
        atomic_write_bytes(
            self._index_path(shard),
            json.dumps(index, sort_keys=True).encode("utf-8"),
        )
        self._index_cache.pop(shard, None)

    def _fold_atimes(self, shard: str, index: Dict) -> None:
        """Merge this process's pending read atimes for ``shard`` into a
        locked, about-to-be-written index."""
        entries = index["entries"]
        for key in [k for k in self._pending_atimes if _shard_of(k) == shard]:
            atime = self._pending_atimes.pop(key)
            entry = entries.get(key)
            if entry is not None and atime > float(entry.get("atime", 0.0)):
                entry["atime"] = round(atime, 3)

    # -- segments --------------------------------------------------------
    def _segment_path(self, shard: str, name: str) -> Path:
        return self._shard_dir(shard) / name

    def _append_record(
        self, shard: str, index: Dict, key: str, payload: bytes
    ) -> Dict[str, object]:
        """Append one record to the shard's active segment (caller holds
        the shard lock); returns the new index entry."""
        stored = zlib.compress(payload)
        crc = zlib.crc32(stored) & 0xFFFFFFFF
        key_bytes = key.encode("utf-8")
        seg_no = int(index.get("next_seg", 1))
        name = f"seg-{seg_no:06d}.seg"
        path = self._segment_path(shard, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "ab") as fh:
            offset = fh.tell()
            fh.write(
                _HEADER.pack(
                    _MAGIC, len(key_bytes), len(stored), len(payload), crc
                )
            )
            fh.write(key_bytes)
            fh.write(stored)
            fh.flush()
            end = fh.tell()
        if end >= SEGMENT_ROLL_BYTES:
            index["next_seg"] = seg_no + 1
        now = round(time.time(), 3)
        return {
            "seg": name,
            "off": offset,
            "len": len(stored),
            "raw_len": len(payload),
            "crc": crc,
            "atime": now,
            "put_unix": now,
        }

    def _read_record(
        self, shard: str, key: str, entry: Dict
    ) -> Optional[bytes]:
        """Read + verify one record; ``None`` means corrupt/vanished."""
        path = self._segment_path(shard, str(entry["seg"]))
        header_len = _HEADER.size + len(key.encode("utf-8"))
        try:
            with open(path, "rb") as fh:
                fh.seek(int(entry["off"]))
                blob = fh.read(header_len + int(entry["len"]))
        except OSError:
            return None
        if len(blob) < header_len:
            return None
        magic, key_len, stored_len, raw_len, crc = _HEADER.unpack_from(blob)
        if magic != _MAGIC or stored_len != int(entry["len"]):
            return None
        stored = blob[header_len:]
        if (
            len(stored) != stored_len
            or zlib.crc32(stored) & 0xFFFFFFFF != int(entry["crc"])
        ):
            return None
        try:
            payload = zlib.decompress(stored)
        except zlib.error:
            return None
        if len(payload) != raw_len:
            return None
        return payload

    # -- byte plane ------------------------------------------------------
    def _read(self, key: str) -> Tuple[Optional[bytes], Optional[str]]:
        """``(payload, None)`` for a stored entry, ``(None, None)`` for a
        missing one and ``(None, reason)`` for a record that fails its
        CRC or length check.  Counts nothing."""
        shard = _shard_of(key)
        index = self._load_index(shard)
        entry = index["entries"].get(key)
        if entry is None:
            # Another process may have just committed: re-stat the index
            # (cheap when unchanged) before declaring a miss.
            index = self._load_index(shard, fresh=True)
            entry = index["entries"].get(key)
            if entry is None:
                return None, None
        payload = self._read_record(shard, key, entry)
        if payload is None:
            # Lost a race against compact (segment replaced underfoot)?
            # Reload the index once and retry before calling it corrupt.
            index = self._load_index(shard, fresh=True)
            entry = index["entries"].get(key)
            if entry is None:
                return None, None
            payload = self._read_record(shard, key, entry)
            if payload is None:
                return None, "segment record failed crc/length"
        return payload, None

    def peek(self, key: str) -> Optional[bytes]:
        """The raw payload of ``key``, without counting the read (the
        :meth:`wait_for` poll)."""
        return self._read(key)[0]

    def put(self, key: str, payload: bytes) -> None:
        shard = _shard_of(key)
        with self._lock(shard):
            index = self._load_index(shard, fresh=True)
            index["entries"][key] = self._append_record(
                shard, index, key, payload
            )
            self._fold_atimes(shard, index)
            self._write_index(shard, index)
        self.counters.puts += 1

    def delete(self, key: str, *, _count: bool = True) -> bool:
        shard = _shard_of(key)
        with self._lock(shard):
            index = self._load_index(shard, fresh=True)
            if key not in index["entries"]:
                return False
            del index["entries"][key]
            self._fold_atimes(shard, index)
            self._write_index(shard, index)
        if _count:
            self.counters.deletes += 1
        return True

    def keys(self, prefix: str = "") -> List[str]:
        out: List[str] = []
        for shard in self._shard_names():
            out.extend(
                k
                for k in self._load_index(shard)["entries"]
                if k.startswith(prefix)
            )
        return sorted(out)

    def _shard_names(self) -> List[str]:
        base = self.base / "shards"
        if not base.is_dir():
            return []
        return sorted(p.name for p in base.iterdir() if p.is_dir())

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
        or ``corrupt``; ``count=False`` counts nothing, for a re-read of
        a key whose lookup the caller has already counted.
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
                self._pending_atimes[key] = time.time()
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
                f"{self.kind} store: unreadable entry {key!r} treated as a "
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
    def flush(self) -> None:
        """Fold pending read atimes into their shard indexes."""
        shards = {_shard_of(k) for k in self._pending_atimes}
        for shard in shards:
            with self._lock(shard):
                index = self._load_index(shard, fresh=True)
                self._fold_atimes(shard, index)
                self._write_index(shard, index)

    def stats(self) -> Dict[str, object]:
        entries = 0
        logical = 0
        stored = 0
        segments = 0
        physical = 0
        keys: List[str] = []
        for shard in self._shard_names():
            index = self._load_index(shard)
            for key, entry in index["entries"].items():
                entries += 1
                keys.append(key)
                logical += int(entry.get("raw_len", 0))
                stored += int(entry.get("len", 0))
            for seg in self._shard_dir(shard).glob("seg-*.seg"):
                segments += 1
                try:
                    physical += seg.stat().st_size
                except OSError:
                    pass
        live = len(self._shard_names())
        dead = max(0, physical - stored - entries * _HEADER.size
                   - sum(len(k.encode()) for k in keys))
        namespaces: Dict[str, int] = {}
        for key in keys:
            head, sep, _ = key.partition("/")
            ns = head if sep and head else "(flat)"
            namespaces[ns] = namespaces.get(ns, 0) + 1
        return {
            "schema": STORE_SCHEMA,
            "kind": self.kind,
            "root": str(self.root),
            "entries": entries,
            "shards": live,
            "segments": segments,
            "logical_bytes": logical,
            "physical_bytes": physical,
            "namespaces": dict(sorted(namespaces.items())),
            "counters": self.counters.to_dict(),
            "stored_bytes": stored,
            "dead_bytes": dead,
            "shard_count": self.shard_count,
        }

    def verify(self) -> List[str]:
        problems: List[str] = []
        for shard in self._shard_names():
            index = self._load_index(shard, fresh=True)
            for key, entry in sorted(index["entries"].items()):
                payload = self._read_record(shard, key, entry)
                if payload is None:
                    problems.append(
                        f"{key}: segment record unreadable "
                        f"({entry['seg']} @ {entry['off']})"
                    )
                    continue
                try:
                    json.loads(payload.decode("utf-8"))
                except (ValueError, UnicodeDecodeError) as exc:
                    problems.append(f"{key}: payload is not JSON ({exc})")
        return problems

    def compact(self) -> Dict[str, object]:
        """Rewrite every shard's live records into fresh segments,
        dropping dead bytes (overwritten/deleted/unreferenced records).
        Runs shard-at-a-time under the shard lock; readers racing a
        compact retry through the reloaded index."""
        reclaimed = 0
        segments_before = 0
        segments_after = 0
        for shard in self._shard_names():
            with self._lock(shard):
                index = self._load_index(shard, fresh=True)
                old_segs = sorted(
                    self._shard_dir(shard).glob("seg-*.seg")
                )
                segments_before += len(old_segs)
                before = sum(s.stat().st_size for s in old_segs)
                live: List[Tuple[str, bytes]] = []
                for key, entry in sorted(index["entries"].items()):
                    payload = self._read_record(shard, key, entry)
                    if payload is not None:
                        live.append((key, payload))
                seg_no = int(index.get("next_seg", 1)) + 1
                fresh_index = self._empty_index()
                fresh_index["next_seg"] = seg_no
                for key, payload in live:
                    fresh_index["entries"][key] = self._append_record(
                        shard, fresh_index, key, payload
                    )
                    # Preserve LRU state across the rewrite.
                    old = index["entries"][key]
                    fresh_index["entries"][key]["atime"] = old.get(
                        "atime", fresh_index["entries"][key]["atime"]
                    )
                    fresh_index["entries"][key]["put_unix"] = old.get(
                        "put_unix", fresh_index["entries"][key]["put_unix"]
                    )
                self._fold_atimes(shard, fresh_index)
                self._write_index(shard, fresh_index)
                new_names = {
                    e["seg"] for e in fresh_index["entries"].values()
                }
                after = 0
                for seg in self._shard_dir(shard).glob("seg-*.seg"):
                    if seg.name in new_names:
                        after += seg.stat().st_size
                        segments_after += 1
                    else:
                        try:
                            seg.unlink()
                        except OSError:
                            try:
                                after += seg.stat().st_size
                            except OSError:
                                pass
                reclaimed += max(0, before - after)
        # Stale ``*.tmp`` litter from killed atomic writers (index/META
        # commits) and claimants.
        swept = 0
        if self.base.is_dir():
            for tmp in self.base.rglob("*.tmp"):
                try:
                    tmp.unlink()
                    swept += 1
                except OSError:
                    pass
        return {
            "reclaimed_bytes": reclaimed,
            "segments_before": segments_before,
            "segments_after": segments_after,
            "tmp_files_swept": swept,
        }

    def gc(self, max_bytes: int) -> List[str]:
        """Evict least-recently-read entries until the stored footprint
        fits ``max_bytes``, then compact to reclaim the bytes."""
        candidates: List[Tuple[float, int, str]] = []
        total = 0
        for shard in self._shard_names():
            index = self._load_index(shard, fresh=True)
            for key, entry in index["entries"].items():
                atime = max(
                    float(entry.get("atime", 0.0)),
                    self._pending_atimes.get(key, 0.0),
                )
                size = int(entry.get("len", 0))
                candidates.append((atime, size, key))
                total += size
        evicted: List[str] = []
        for atime, size, key in sorted(candidates):
            if total <= max_bytes:
                break
            if self.delete(key, _count=False):
                total -= size
                evicted.append(key)
                self.counters.evictions += 1
        if evicted:
            self.compact()
        return evicted

    # -- recovery --------------------------------------------------------
    def rebuild_index(self, shard: str) -> int:
        """Rebuild one shard's index by scanning its segments (disaster
        recovery; last record for a key wins).  Returns entries found."""
        with self._lock(shard):
            index = self._empty_index()
            max_seg = 0
            for seg in sorted(self._shard_dir(shard).glob("seg-*.seg")):
                max_seg = max(max_seg, int(seg.stem.split("-")[1]))
                try:
                    blob = seg.read_bytes()
                except OSError:
                    continue
                off = 0
                while off + _HEADER.size <= len(blob):
                    try:
                        magic, key_len, stored_len, raw_len, crc = (
                            _HEADER.unpack_from(blob, off)
                        )
                    except struct.error:
                        break
                    if magic != _MAGIC:
                        break  # torn tail from a killed writer
                    start = off + _HEADER.size
                    key = blob[start:start + key_len].decode(
                        "utf-8", "replace"
                    )
                    stored = blob[start + key_len:start + key_len + stored_len]
                    if (
                        len(stored) == stored_len
                        and zlib.crc32(stored) & 0xFFFFFFFF == crc
                    ):
                        index["entries"][key] = {
                            "seg": seg.name,
                            "off": off,
                            "len": stored_len,
                            "raw_len": raw_len,
                            "crc": crc,
                            "atime": round(time.time(), 3),
                            "put_unix": round(time.time(), 3),
                        }
                    off = start + key_len + stored_len
            index["next_seg"] = max_seg + 1
            self._write_index(shard, index)
            return len(index["entries"])
