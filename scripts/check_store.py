#!/usr/bin/env python3
"""Validate a result-store stats document from ``repro cache stats
--json``.

Checks the ``repro-store/1`` schema structurally:

* every top-level key present with the right type, byte/entry counts
  non-negative;
* ``kind`` is ``sharded``;
* the namespace histogram summing to the entry count, namespace names
  drawn from the runner's key namespaces;
* the counters block complete (hits/misses/puts/deletes/evictions/
  corrupt, all non-negative ints);
* the sharded extras (``stored_bytes``/``dead_bytes``/``shard_count``)
  internally consistent — stored bytes cannot exceed physical bytes,
  live shards cannot exceed the configured shard count.

``--expect-entries N`` additionally pins the entry count the CI smoke
run knows (e.g. after seeding a sweep of N cells).

Exit status 0 iff the document is valid.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.store import STORE_SCHEMA  # noqa: E402

#: Namespaces the toolkit writes today; the histogram may only use these.
_KNOWN_NAMESPACES = {"result", "manifest", "forensics", "figure", "(flat)"}

_TOP_KEYS = {
    "schema": str,
    "kind": str,
    "root": str,
    "entries": int,
    "shards": int,
    "segments": int,
    "logical_bytes": int,
    "physical_bytes": int,
    "namespaces": dict,
    "counters": dict,
}

_COUNTER_KEYS = ("hits", "misses", "puts", "deletes", "evictions", "corrupt")


def fail(msg: str) -> int:
    print(f"INVALID STORE STATS: {msg}", file=sys.stderr)
    return 1


def check(doc: dict, *, expect_entries: int | None) -> int:
    for key, want in _TOP_KEYS.items():
        if key not in doc:
            return fail(f"missing top-level key {key!r}")
        if not isinstance(doc[key], want) or isinstance(doc[key], bool):
            return fail(f"{key} is {type(doc[key]).__name__}, want {want}")
    if doc["schema"] != STORE_SCHEMA:
        return fail(f"schema {doc['schema']!r} != {STORE_SCHEMA!r}")
    if doc["kind"] != "sharded":
        return fail(f"kind {doc['kind']!r}, want 'sharded'")
    for key in ("entries", "shards", "segments", "logical_bytes",
                "physical_bytes"):
        if doc[key] < 0:
            return fail(f"{key} is negative: {doc[key]}")

    namespaces = doc["namespaces"]
    unknown = set(namespaces) - _KNOWN_NAMESPACES
    if unknown:
        return fail(f"unknown namespaces: {sorted(unknown)}")
    for ns, count in namespaces.items():
        if not isinstance(count, int) or count < 1:
            return fail(f"namespace {ns!r}: bad count {count!r}")
    if sum(namespaces.values()) != doc["entries"]:
        return fail(
            f"namespace histogram sums to {sum(namespaces.values())}, "
            f"entries is {doc['entries']}"
        )

    counters = doc["counters"]
    for key in _COUNTER_KEYS:
        value = counters.get(key)
        if not isinstance(value, int) or value < 0:
            return fail(f"counters.{key} is {value!r}")

    for key in ("stored_bytes", "dead_bytes", "shard_count"):
        if not isinstance(doc.get(key), int) or doc[key] < 0:
            return fail(f"sharded stats: bad {key} {doc.get(key)!r}")
    if doc["stored_bytes"] > doc["physical_bytes"]:
        return fail(
            f"stored_bytes {doc['stored_bytes']} exceeds "
            f"physical_bytes {doc['physical_bytes']}"
        )
    if doc["shards"] > doc["shard_count"]:
        return fail(
            f"{doc['shards']} live shards exceed shard_count "
            f"{doc['shard_count']}"
        )
    if doc["entries"] and not doc["segments"]:
        return fail("entries present but no segment files")

    if expect_entries is not None and doc["entries"] != expect_entries:
        return fail(
            f"{doc['entries']} entries, expected {expect_entries}"
        )

    print(
        f"OK: {doc['kind']} store at {doc['root']} — "
        f"{doc['entries']} entries, {doc['segments']} segment(s), "
        f"{doc['physical_bytes']:,} bytes on disk "
        f"({doc['logical_bytes']:,} logical)"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stats", help="stats JSON to validate")
    parser.add_argument(
        "--expect-entries",
        type=int,
        default=None,
        metavar="N",
        help="fail unless the store holds exactly N entries",
    )
    args = parser.parse_args(argv)
    try:
        doc = json.loads(Path(args.stats).read_text("utf-8"))
    except (OSError, ValueError) as exc:
        return fail(f"cannot read {args.stats}: {exc}")
    if not isinstance(doc, dict):
        return fail("document is not a JSON object")
    return check(doc, expect_entries=args.expect_entries)


if __name__ == "__main__":
    sys.exit(main())
