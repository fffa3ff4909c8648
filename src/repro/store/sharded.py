"""``ShardedStore``: the compacting, concurrent-writer result store.

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

import json
import struct
import time
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .base import (
    FileLock,
    ResultStore,
    StoreInitError,
    atomic_write_bytes,
    namespace_histogram,
    stats_document,
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


def _shard_of(key: str) -> str:
    import hashlib

    return hashlib.sha256(key.encode("utf-8")).hexdigest()[0]


class ShardedStore(ResultStore):
    """Key-prefix-sharded append-only segment store."""

    kind = "sharded"

    def __init__(self, root: Path):
        super().__init__(root)
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

    def _claims_dir(self) -> Path:
        return self.base / "claims"

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
    def _read(self, key: str, *, count: bool) -> Optional[bytes]:
        shard = _shard_of(key)
        index = self._load_index(shard)
        entry = index["entries"].get(key)
        if entry is None:
            # Another process may have just committed: re-stat the index
            # (cheap when unchanged) before declaring a miss.
            index = self._load_index(shard, fresh=True)
            entry = index["entries"].get(key)
            if entry is None:
                if count:
                    self._note("misses")
                return None
        payload = self._read_record(shard, key, entry)
        if payload is None:
            # Lost a race against compact (segment replaced underfoot)?
            # Reload the index once and retry before calling it corrupt.
            index = self._load_index(shard, fresh=True)
            entry = index["entries"].get(key)
            if entry is None:
                if count:
                    self._note("misses")
                return None
            payload = self._read_record(shard, key, entry)
            if payload is None:
                if count:
                    self.note_corrupt(
                        key, "segment record failed crc/length"
                    )
                return None
        if count:
            self._pending_atimes[key] = time.time()
            self._note("hits")
        return payload

    def get(self, key: str) -> Optional[bytes]:
        return self._read(key, count=True)

    def peek(self, key: str) -> Optional[bytes]:
        return self._read(key, count=False)

    def put(self, key: str, payload: bytes) -> None:
        shard = _shard_of(key)
        with self._lock(shard):
            index = self._load_index(shard, fresh=True)
            index["entries"][key] = self._append_record(
                shard, index, key, payload
            )
            self._fold_atimes(shard, index)
            self._write_index(shard, index)
        self._note("puts")

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
            self._note("deletes")
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
        return stats_document(
            self,
            entries=entries,
            shards=live,
            segments=segments,
            logical_bytes=logical,
            physical_bytes=physical,
            namespaces=namespace_histogram(keys),
            extra={
                "stored_bytes": stored,
                "dead_bytes": dead,
                "shard_count": self.shard_count,
            },
        )

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
                self._note("evictions")
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
