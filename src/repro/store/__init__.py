"""The result store: one class, :class:`~repro.store.result_store.ResultStore`.

It keeps one zlib-compressed, CRC-guarded record file per key, written
by temp file and rename, with ``verify`` and an LRU-by-mtime ``gc``.
Processes may share a cache directory: the rename is all they
coordinate through, and two that compute one key store the same bytes.
Every document goes in through
:meth:`~repro.store.result_store.ResultStore.save` and comes back
through :meth:`~repro.store.result_store.ResultStore.load`, which
applies the one corrupt-entry policy and counts each read as exactly
one hit, miss or corrupt entry.

:func:`store_for` opens the store once per cache directory.  A directory
it cannot open on (the ``store`` path squatted by a file, a foreign
layout version, an unwritable fresh directory) raises
:class:`StoreInitError` and nothing is written there; ``repro`` reports
it and exits 2.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

from .result_store import (  # noqa: F401  (re-exported API surface)
    STORE_SCHEMA,
    TMP_GRACE_SECONDS,
    ResultStore,
    StoreCounters,
    StoreInitError,
)

# One store object per cache directory, so the runner, telemetry,
# forensics and figures share its counters and corrupt-entry warning
# within a process.
_instances: Dict[str, ResultStore] = {}


def store_for(root) -> ResultStore:
    """The shared store instance for cache directory ``root``; raises
    :class:`StoreInitError` when the store cannot open there."""
    root = str(Path(root))
    store = _instances.get(root)
    if store is None:
        store = _instances[root] = ResultStore(root)
    return store


def drop_cached_instances() -> None:
    """Forget every cached store instance (tests)."""
    _instances.clear()
