"""Tests for the result store (``repro.store``): round-trips, opening
a directory, corruption handling, LRU eviction, and the N-process
concurrent-writer guarantee."""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
import textwrap
import time
import zlib
from pathlib import Path

import pytest

from repro import store as store_pkg
from repro.store import (
    STORE_SCHEMA,
    TMP_GRACE_SECONDS,
    ResultStore,
    StoreInitError,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(REPO_ROOT / "scripts"))
import check_doc  # noqa: E402


@pytest.fixture(autouse=True)
def isolated_instances():
    """No shared store instances between tests."""
    store_pkg.drop_cached_instances()
    yield
    store_pkg.drop_cached_instances()


def make_store(kind: str, root: Path) -> ResultStore:
    return ResultStore(root)


def record_path(root: Path, key: str) -> Path:
    """Where the store keeps ``key``: each ``/`` is a directory level."""
    return root / "store" / "entries" / f"{key}.rec"


# ----------------------------------------------------------------------
# One store kind; the parameter keeps these tests' ids ("[sharded]").
@pytest.mark.parametrize("kind", ["sharded"])
class TestRoundTrip:
    def test_put_get_bytes(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.put("result/" + "ab" * 32, b"payload-bytes")
        assert store._read("result/" + "ab" * 32)[0] == b"payload-bytes"
        assert store.counters.puts == 1

    def test_missing_key_is_counted_miss(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        assert store.load("result/" + "00" * 32, "x/1") is None
        assert store.counters.misses == 1

    def test_overwrite_returns_newest(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.put("result/" + "cd" * 32, b"old")
        store.put("result/" + "cd" * 32, b"new")
        assert store._read("result/" + "cd" * 32)[0] == b"new"
        assert store.stats()["entries"] == 1

    def test_json_round_trip(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        doc = {"schema": "x/1", "values": [1, 2.5, None], "nested": {"a": 1}}
        store.save("forensics/" + "ee" * 32, doc)
        assert store.load("forensics/" + "ee" * 32, "x/1") == doc
        assert store.counters.puts == 1
        assert store.counters.hits == 1

    def test_load_counts_one_outcome_per_read(self, kind, tmp_path):
        """A foreign schema tag or a document ``decode`` rejects is a
        corrupt miss, never also a hit."""
        store = make_store(kind, tmp_path)
        key = "figure/fig1/" + "ab" * 32
        store.save(key, {"schema": "x/1", "n": 1})
        with pytest.warns(RuntimeWarning, match="schema tag"):
            assert store.load(key, "x/2") is None
        assert store.load(key, "x/1", lambda doc: doc["missing"]) is None
        assert store.load(key, "x/1", lambda doc: doc["n"]) == 1
        assert store.load("figure/fig1/" + "cd" * 32, "x/1") is None
        counts = store.counters
        assert (counts.hits, counts.misses, counts.corrupt) == (1, 1, 2)

    def test_delete(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.put("result/" + "0f" * 32, b"x")
        assert store.delete("result/" + "0f" * 32) is True
        assert store.delete("result/" + "0f" * 32) is False
        assert store._read("result/" + "0f" * 32)[0] is None

    def test_keys_prefix(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.put("result/" + "aa" * 32, b"1")
        store.put("manifest/MANIFEST_r1_abc", b"2")
        store.put("figure/fig4/" + "bb" * 32, b"3")
        assert sorted(store.keys()) == sorted(
            ["result/" + "aa" * 32, "manifest/MANIFEST_r1_abc",
             "figure/fig4/" + "bb" * 32]
        )
        assert store.keys("manifest/") == ["manifest/MANIFEST_r1_abc"]

    def test_unparsable_entry_is_warn_once_miss(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.put("result/" + "11" * 32, b"{not json")
        store.put("result/" + "22" * 32, b"also not }")
        with pytest.warns(RuntimeWarning, match="cache miss"):
            assert store.load("result/" + "11" * 32, "x/1") is None
        # Second corrupt read: counted, but silent.
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            assert store.load("result/" + "22" * 32, "x/1") is None
        assert store.counters.corrupt == 2

    def test_stats_document_shape(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.put("result/" + "aa" * 32, b'{"pad": "%s"}' % (b"x" * 100))
        store.put("figure/fig1/" + "bb" * 32, b"{}")
        doc = store.stats()
        assert doc["schema"] == STORE_SCHEMA
        assert doc["entries"] == 2
        assert doc["namespaces"] == {"result": 1, "figure": 1}
        assert doc["logical_bytes"] == 113
        assert doc["stored_bytes"] == sum(
            record_path(tmp_path, key).stat().st_size for key in store.keys()
        )
        assert check_doc.check_text("store", json.dumps(doc)) == []
        assert store.verify() == []

    def test_atomic_tmp_litter_ignored(self, kind, tmp_path):
        """A writer killed mid-commit leaves only ``*.tmp`` litter, which
        readers never parse and ``gc`` sweeps once it is older than the
        grace period."""
        store = make_store(kind, tmp_path)
        key = "result/" + "aa" * 32
        store.put(key, b'{"good": true}')
        record = record_path(tmp_path, key)
        litter = [
            tmp_path / "store" / "zz.json.tmp",
            record.with_name(record.name + ".4242.0badc0de.tmp"),
        ]
        stale = time.time() - TMP_GRACE_SECONDS - 60
        for path in litter:
            path.write_bytes(b"half-written")
            os.utime(path, (stale, stale))
        assert store.keys() == [key]
        assert store.verify() == []
        assert store.gc(1 << 30) == []
        assert not any(path.exists() for path in litter)
        assert store._read(key)[0] == b'{"good": true}'

    def test_gc_keeps_in_flight_temp_files(self, kind, tmp_path):
        """``gc`` leaves a fresh temp file alone: a put about to be
        renamed beside its record belongs to a live writer."""
        store = make_store(kind, tmp_path)
        key = "result/" + "aa" * 32
        store.put(key, b'{"good": true}')
        record = record_path(tmp_path, key)
        in_flight = record.with_name(record.name + ".4242.0badc0de.tmp")
        in_flight.write_bytes(b"being written")
        assert store.gc(1 << 30) == []
        assert in_flight.exists()
        assert store._read(key)[0] == b'{"good": true}'


# ----------------------------------------------------------------------
class TestSelection:
    """Which store ``store_for`` opens for a cache directory."""

    def test_unopenable_store_raises(self, tmp_path):
        (tmp_path / "store").write_text("squatted")  # not a directory
        with pytest.raises(StoreInitError, match="not a directory"):
            store_pkg.store_for(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["store"]

    def test_repro_store_env_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "legacy")
        assert isinstance(store_pkg.store_for(tmp_path), ResultStore)

    def test_store_for_shares_instances(self, tmp_path):
        a = store_pkg.store_for(tmp_path)
        b = store_pkg.store_for(tmp_path)
        assert a is b


# ----------------------------------------------------------------------
class TestShardedInternals:
    def test_payloads_are_compressed_and_crc_guarded(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "result/" + "ab" * 32
        store.put(key, b"A" * 10_000)  # highly compressible
        record = record_path(tmp_path, key).read_bytes()
        assert len(record) < 10_000  # stored compressed
        magic, raw_len, crc = struct.unpack_from("<4sII", record)
        assert (magic, raw_len) == (b"RST2", 10_000)
        assert crc == zlib.crc32(record[12:])
        assert zlib.decompress(record[12:]) == b"A" * 10_000
        assert store._read(key)[0] == b"A" * 10_000

    def test_bit_flip_detected_as_corrupt_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "result/" + "ab" * 32
        store.put(key, zlib.compress(b"x") * 50)  # incompressible-ish
        path = record_path(tmp_path, key)
        blob = bytearray(path.read_bytes())
        blob[12 + 3] ^= 0xFF
        path.write_bytes(blob)
        fresh = ResultStore(tmp_path)
        with pytest.warns(RuntimeWarning):
            assert fresh.load(key, "x/1") is None
        assert fresh.counters.corrupt == 1
        assert fresh.verify() != []

    def test_overwrite_frees_the_old_record(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "result/" + "ab" * 32
        for i in range(20):
            store.put(key, b'{"version": %d, "pad": "%s"}' % (i, b"." * 2000))
        on_disk = sum(
            path.stat().st_size
            for path in (tmp_path / "store").rglob("*")
            if path.is_file() and path.name != "META.json"
        )
        assert on_disk == store.stats()["stored_bytes"]
        assert on_disk == record_path(tmp_path, key).stat().st_size
        assert json.loads(store._read(key)[0])["version"] == 19
        assert store.verify() == []

    def test_gc_evicts_lru_first(self, tmp_path):
        import hashlib

        store = ResultStore(tmp_path)
        keys = ["result/" + ("%02x" % i) * 32 for i in range(8)]
        old = time.time() - 3600
        for i, key in enumerate(keys):
            # Hard-to-compress payloads so the byte budget bites.
            pad = b"".join(
                hashlib.sha256(key.encode() + bytes([j])).digest()
                for j in range(16)
            )
            store.save(key, {"schema": "x/1", "pad": pad.hex()})
            # Oldest first: without the reads below, keys[:4] would go.
            os.utime(record_path(tmp_path, key), (old + i, old + i))
        # Read half the keys so they are most-recently-used.
        kept = keys[:4]
        for key in kept:
            assert store.load(key, "x/1") is not None
        budget = sum(record_path(tmp_path, k).stat().st_size for k in kept)
        evicted = store.gc(budget)
        assert sorted(evicted) == keys[4:]
        for key in kept:
            assert store.load(key, "x/1") is not None
        assert store.counters.evictions == len(evicted)

    def test_lru_order_survives_a_read_only_process(self, tmp_path):
        """A read is recent use even when the process that made it never
        writes: each instance stands in for a separate process."""
        a, b = "result/" + "aa" * 32, "result/" + "bb" * 32
        writer = ResultStore(tmp_path)
        writer.save(a, {"schema": "x/1", "name": "a"})
        one_record = writer.stats()["stored_bytes"]
        time.sleep(0.05)  # beyond the file-timestamp granularity
        writer.save(b, {"schema": "x/1", "name": "b"})
        del writer
        time.sleep(0.05)
        reader = ResultStore(tmp_path)
        assert reader.load(a, "x/1") == {"schema": "x/1", "name": "a"}
        del reader
        assert ResultStore(tmp_path).gc(one_record) == [b]
        assert ResultStore(tmp_path).keys() == [a]

    def test_claims_dir_from_older_code_is_ignored(self, tmp_path):
        """Older code kept cross-process claims under ``store/claims/``:
        no read, count or sweep sees such a directory."""
        store = ResultStore(tmp_path)
        key = "result/" + "ab" * 32
        store.save(key, {"schema": "x/1"})
        claims = tmp_path / "store" / "claims"
        claims.mkdir()
        (claims / "LOCK").write_bytes(b"")
        (claims / ("cd" * 20 + ".claim")).write_text('{"pid": 1}')
        assert store.keys() == [key]
        assert store.stats()["entries"] == 1
        assert store.verify() == []
        assert store.gc(1 << 30) == []
        assert store.load(key, "x/1") == {"schema": "x/1"}

    def test_keys_cannot_leave_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        for key in ("../escape", "result/../../escape", "/abs", "a//b", ""):
            with pytest.raises(ValueError):
                store.put(key, b"x")
        assert list(tmp_path.rglob("*escape*")) == []

    def test_foreign_layout_version_refused(self, tmp_path):
        ResultStore(tmp_path)
        meta_path = tmp_path / "store" / "META.json"
        meta = json.loads(meta_path.read_text("utf-8"))
        meta["schema"] = "repro-store-layout/999"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreInitError, match="layout/999"):
            ResultStore(tmp_path)
        # The segment layout older code wrote: refused, with the advice
        # that its directory can go.
        meta["schema"] = "repro-store-layout/1"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreInitError) as err:
            ResultStore(tmp_path)
        message = str(err.value)
        assert str(tmp_path / "store") in message
        assert "older code" in message and "never hit" in message
        assert "can be deleted" in message


# ----------------------------------------------------------------------
_RAW_WRITER = textwrap.dedent(
    """
    import sys
    from repro.store import ResultStore

    root, worker = sys.argv[1], int(sys.argv[2])
    store = ResultStore(root)
    # 20 private keys plus 10 shared keys every worker also writes.
    for i in range(20):
        key = "result/%02d%02d" % (worker, i) + "ef" * 30
        store.put(key, b'{"worker": %d, "i": %d}' % (worker, i))
    for i in range(10):
        key = "result/ffff%02d" % i + "ab" * 29
        store.put(key, b'{"shared": %d}' % i)
    print("ok")
    """
)

_RUNNER_WORKER = textwrap.dedent(
    """
    import json
    import sys

    from repro.experiments.runner import RunConfig, last_manifest, run_many
    from repro.systems import paper

    sweep = [
        RunConfig.make(w, s, threads=2, scale=0.05)
        for w in ("counter", "llb-l")
        for s in (paper.BASELINE, paper.CHATS, paper.PCHATS)
    ]
    results = run_many(sweep, workers=1)
    print(json.dumps({
        "simulations": last_manifest().executed,
        "cycles": [r.cycles for r in results],
    }))
    """
)


class TestConcurrentWriters:
    """N >= 4 real processes against one store directory (acceptance)."""

    N = 4

    def _spawn(self, script: str, argv, env):
        return subprocess.Popen(
            [sys.executable, "-c", script, *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def _env(self, cache_dir: Path) -> dict:
        env = os.environ.copy()
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env.pop("REPRO_NO_CACHE", None)
        return env

    def test_concurrent_raw_writers_never_corrupt(self, tmp_path):
        env = self._env(tmp_path)
        procs = [
            self._spawn(_RAW_WRITER, [str(tmp_path), str(i)], env)
            for i in range(self.N)
        ]
        for p in procs:
            out, err = p.communicate(timeout=120)
            assert p.returncode == 0, err
            assert out.strip() == "ok"
        store = ResultStore(tmp_path)
        # 20 private keys per worker + 10 shared keys, no losses.
        assert len(store.keys()) == self.N * 20 + 10
        assert store.verify() == []
        for i in range(10):
            key = "result/ffff%02d" % i + "ab" * 29
            assert json.loads(store._read(key)[0]) == {"shared": i}

    def test_concurrent_run_many_agree(self, tmp_path):
        """Four processes race the same 6-cell sweep with no
        coordination: a cell may run in several of them, but every
        process returns the same results and the store ends up holding
        one sound record per cell."""
        cache = tmp_path / "cache"
        env = self._env(cache)
        procs = [
            self._spawn(_RUNNER_WORKER, [], env) for _ in range(self.N)
        ]
        reports = []
        for p in procs:
            out, err = p.communicate(timeout=300)
            assert p.returncode == 0, err
            reports.append(json.loads(out.strip().splitlines()[-1]))
        # Each cell ran at least once, and at most once per process.
        total_sims = sum(r["simulations"] for r in reports)
        assert 6 <= total_sims <= 6 * self.N, reports
        # Every process saw the same bit-identical results.
        assert len({tuple(r["cycles"]) for r in reports}) == 1
        store = ResultStore(cache)
        assert len(store.keys("result/")) == 6
        assert store.verify() == []
