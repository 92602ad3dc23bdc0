"""Content-addressed artifact store.

Artifacts (heatmaps, quantizations, frame traces, simulation results)
are addressed by the fingerprint of the computation that produced them
(see :mod:`.fingerprint`), and live in a two-level object directory::

    <root>/objects/<key[:2]>/<key>.pkl

The store keeps the harness's hardened cache behaviour:

* **atomic writes** — pickle to a PID-suffixed temp file, then
  ``os.replace``, so an interrupted writer can never leave a truncated
  entry behind;
* **corrupt recovery** — an unreadable entry (truncated pickle, stale
  class layout, ...) is deleted and logged as a
  :class:`~repro.errors.CacheCorruptionError` so the caller recomputes
  instead of crashing.

A store created without a root is memory-only: fingerprint-addressed
memoization with no persistence, which is what a one-shot
``Zatel.predict`` call uses.
"""

from __future__ import annotations

import logging
import os
import pickle
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable

from ...errors import CacheCorruptionError

__all__ = ["ArtifactStore", "StoreStats"]

logger = logging.getLogger("repro.stages")

#: Unpickling failure modes treated as "corrupt file, recompute".
_CORRUPT_PICKLE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    ValueError,
)

#: Sentinel distinguishing "not cached" from a cached ``None``.
_MISSING = object()


@dataclass
class StoreStats:
    """Observability counters for one store instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def fold(self, delta: "StoreStats") -> None:
        """Add ``delta``'s counts, e.g. those one job process made."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(delta, f.name))


class ArtifactStore:
    """Fingerprint-keyed artifact cache with optional disk persistence."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._memo: dict[str, Any] = {}
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """On-disk location of ``key`` (meaningless for memory-only stores)."""
        if self.root is None:
            raise ValueError("memory-only store has no on-disk paths")
        return self.root / "objects" / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """The artifact stored under ``key``, or ``default``."""
        value = self._lookup(key)
        return default if value is _MISSING else value

    def contains(self, key: str) -> bool:
        """Whether ``key`` is stored; a persisted hit is loaded into the memo.

        A probe, not a lookup: it counts only the disk load it makes
        (``disk_hits``), never a miss or a memory hit, because the caller
        follows a hit with the :meth:`get` that counts.
        """
        return self._lookup(key, count=False) is not _MISSING

    def put(self, key: str, value: Any, persist: bool = True) -> None:
        """Store ``value`` under ``key``.

        ``persist=False`` keeps it in the in-process memo only.  Stages
        use it for cheap artifacts (downscaled configs, partitions,
        fractions) that are faster to recompute than to unpickle, and for
        results tainted by execution faults (a degraded simulation or
        prediction), which must never shadow a clean artifact on disk.
        A warm predict does not recompute the cheap ones either: it reads
        the persisted combined result and resolves nothing upstream.
        """
        self._memo[key] = value
        self.stats.writes += 1
        if self.root is None or not persist:
            return
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def get_or_compute(
        self, key: str, compute: Callable[[], Any], persist: bool = True
    ) -> Any:
        """Cached value under ``key``, computing (and storing) on miss."""
        value = self._lookup(key)
        if value is not _MISSING:
            return value
        value = compute()
        self.put(key, value, persist=persist)
        return value

    def forget(self, key: str) -> None:
        """Drop ``key`` from memory and disk (no-op when absent)."""
        self._memo.pop(key, None)
        if self.root is not None:
            self.path_for(key).unlink(missing_ok=True)

    def clear_memory(self) -> None:
        """Drop the in-process memo (disk entries survive)."""
        self._memo.clear()

    # ------------------------------------------------------------------

    def _lookup(self, key: str, count: bool = True) -> Any:
        if key in self._memo:
            self.stats.memory_hits += count
            return self._memo[key]
        if self.root is None:
            self.stats.misses += count
            return _MISSING
        path = self.path_for(key)
        try:
            # Open directly: an entry another process deletes between an
            # existence check and the open would otherwise crash the get.
            handle = path.open("rb")
        except FileNotFoundError:
            self.stats.misses += count
            return _MISSING
        try:
            with handle:
                value = pickle.load(handle)
        except _CORRUPT_PICKLE_ERRORS as error:
            self.stats.corrupt += 1
            self.stats.misses += count
            logger.warning(
                "%s",
                CacheCorruptionError(
                    f"corrupt cache file {path} ({type(error).__name__}: "
                    f"{error}); deleted, recomputing"
                ),
            )
            path.unlink(missing_ok=True)
            return _MISSING
        self.stats.disk_hits += 1
        self._memo[key] = value
        return value
