"""The result store: one class, :class:`~repro.store.sharded.ShardedStore`.

It keeps key-prefix shards of append-only segment files holding
zlib-compressed JSON documents behind a per-shard index, with advisory
file locks, cross-process execution claims, ``compact``/``gc``
maintenance and an LRU-by-atime eviction policy.  Every document goes in
through :meth:`~repro.store.sharded.ShardedStore.save` and comes back
through :meth:`~repro.store.sharded.ShardedStore.load`, which applies
the one corrupt-entry policy and counts each read as exactly one hit,
miss or corrupt entry.

:func:`store_for` opens the store once per cache directory.  A directory
it cannot open on (the ``store`` path squatted by a file, a foreign
layout version, an unwritable fresh directory) raises
:class:`StoreInitError` and nothing is written there; ``repro`` reports
it and exits 2.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

from .base import (  # noqa: F401  (re-exported API surface)
    Claim,
    STORE_SCHEMA,
    StoreCounters,
    StoreError,
    StoreInitError,
    WAIT_TIMEOUT_SECONDS,
)
from .sharded import ShardedStore

# One store object per cache directory, so the runner, telemetry,
# forensics and figures share counters, index caches and pending-atime
# state within a process.
_instances: Dict[str, ShardedStore] = {}


def store_for(root) -> ShardedStore:
    """The shared store instance for cache directory ``root``; raises
    :class:`StoreInitError` when the store cannot open there."""
    root = str(Path(root))
    store = _instances.get(root)
    if store is None:
        store = _instances[root] = ShardedStore(root)
    return store


def drop_cached_instances() -> None:
    """Flush and forget every cached store instance (tests)."""
    for store in list(_instances.values()):
        try:
            store.flush()
        except (OSError, StoreError):
            pass
    _instances.clear()
