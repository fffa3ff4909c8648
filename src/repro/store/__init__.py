"""Pluggable result-store subsystem: selection mirroring ``repro.accel``.

Two backends sit behind one :class:`~repro.store.base.ResultStore`
interface:

``legacy``
    Today's one-JSON-file-per-entry layout
    (:class:`~repro.store.legacy.LegacyJsonStore`) — kept readable and
    writable so pre-store caches keep hitting unmigrated.
``sharded``
    The default (:class:`~repro.store.sharded.ShardedStore`):
    key-prefix shards of append-only segment files holding
    zlib-compressed payloads behind a per-shard index, with advisory
    file locks, cross-process execution claims, ``compact``/``gc``
    maintenance and an LRU-by-atime eviction policy.

Selection order follows the accel precedent exactly: an explicit
:func:`select_store` call (the CLI's ``--store``) wins, else the
``REPRO_STORE`` environment variable, else ``auto``.  ``auto`` resolves
per cache directory: a directory already holding a legacy-layout cache
(and no sharded store) stays ``legacy`` so existing entries keep
resolving; anything else gets ``sharded``.  A sharded store that cannot
initialise on its directory (foreign layout version, ``store`` path
squatted by a file) degrades to ``legacy`` with a single
:class:`RuntimeWarning` per process — same warn-once-fallback semantics
as an unavailable accel backend.  Selection also writes ``REPRO_STORE``
so ``ProcessPoolExecutor`` workers inherit the choice.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from .base import (  # noqa: F401  (re-exported API surface)
    CLAIM_TTL_SECONDS,
    Claim,
    FileLock,
    MigrationError,
    ResultStore,
    STORE_SCHEMA,
    StoreCounters,
    StoreError,
    StoreInitError,
    WAIT_TIMEOUT_SECONDS,
)
from .legacy import LegacyJsonStore, looks_like_legacy_cache
from .migrate import migrate_cache  # noqa: F401
from .sharded import ShardedStore

#: Names accepted by ``select_store`` / ``--store`` / REPRO_STORE.
STORES = ("legacy", "sharded", "auto")

_ENV_VAR = "REPRO_STORE"
_selected: Optional[str] = None  # None -> read from the environment
_warned_fallback = False


class UnknownStoreError(ValueError):
    """Raised for a store name outside :data:`STORES`."""

    def __init__(self, name: str):
        super().__init__(
            f"unknown store {name!r}; choose from {', '.join(STORES)}"
        )


def select_store(name: str) -> str:
    """Select ``name`` for this process (and, via the environment, for
    pool workers).  Returns the requested name."""
    if name not in STORES:
        raise UnknownStoreError(name)
    global _selected
    _selected = name
    os.environ[_ENV_VAR] = name
    return name


def current_store() -> str:
    """The *requested* store kind (may be ``auto``)."""
    if _selected is not None:
        return _selected
    env = os.environ.get(_ENV_VAR, "").strip()
    if env:
        if env not in STORES:
            raise UnknownStoreError(env)
        return env
    return "auto"


def resolve_kind(root: Path) -> str:
    """The concrete backend ``auto`` picks for ``root``: a directory
    already holding a legacy cache (and no sharded store) stays legacy;
    everything else is sharded."""
    requested = current_store()
    if requested != "auto":
        return requested
    if looks_like_legacy_cache(Path(root)):
        return "legacy"
    return "sharded"


def _warn_sharded_fallback(reason: str) -> None:
    global _warned_fallback
    if _warned_fallback:
        return
    _warned_fallback = True
    warnings.warn(
        f"sharded result store unavailable ({reason}); "
        "falling back to the legacy flat-JSON store",
        RuntimeWarning,
        stacklevel=3,
    )


def open_store(root, kind: Optional[str] = None) -> ResultStore:
    """Open the result store for cache directory ``root``.

    ``kind`` overrides the selection (used by migrate, which needs both
    backends on one directory at once).  A sharded store that cannot
    initialise degrades to legacy with one warning per process.
    """
    root = Path(root)
    kind = kind if kind is not None else resolve_kind(root)
    if kind == "legacy":
        return LegacyJsonStore(root)
    if kind != "sharded":
        raise UnknownStoreError(kind)
    try:
        return ShardedStore(root)
    except StoreInitError as exc:
        _warn_sharded_fallback(str(exc))
        return LegacyJsonStore(root)


@contextlib.contextmanager
def use(name: str) -> Iterator[str]:
    """Temporarily select ``name`` (tests); restores the prior state."""
    global _selected
    prior_selected = _selected
    prior_env = os.environ.get(_ENV_VAR)
    try:
        yield select_store(name)
    finally:
        _selected = prior_selected
        if prior_env is None:
            os.environ.pop(_ENV_VAR, None)
        else:
            os.environ[_ENV_VAR] = prior_env


# ----------------------------------------------------------------------
# Per-directory instance cache (one store object per root+kind, so the
# runner, telemetry, forensics, and figures all share counters, index
# caches, and pending-atime state within a process).
# ----------------------------------------------------------------------
_instances: Dict[Tuple[str, str], ResultStore] = {}


def store_for(root) -> ResultStore:
    """The shared store instance for ``root`` under the current
    selection (resolution is re-checked per call, so flipping
    ``REPRO_STORE`` or migrating a directory takes effect immediately)."""
    root = Path(root)
    kind = resolve_kind(root)
    cache_key = (str(root), kind)
    store = _instances.get(cache_key)
    if store is None:
        store = open_store(root, kind)
        # open_store may have degraded sharded -> legacy; cache under
        # the *resolved* kind so the fallback is also shared.
        _instances[(str(root), store.kind)] = store
        if store.kind != kind:
            _instances[cache_key] = store
    return store


def drop_cached_instances() -> None:
    """Flush and forget every cached store instance (tests; migrate)."""
    for store in list(_instances.values()):
        try:
            store.flush()
        except (OSError, StoreError):
            pass
    _instances.clear()
