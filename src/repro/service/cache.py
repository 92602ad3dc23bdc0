"""Fingerprint-keyed result cache for served predictions.

A thin, accounted layer over the content-addressed
:class:`~repro.core.stages.store.ArtifactStore`: keys are request
fingerprints (:func:`~repro.core.stages.requests.spec_fingerprint`
under the harness ``CACHE_VERSION``), values are the final JSON-able
result payloads.  Because the store persists to disk with atomic writes
and corrupt-entry recovery, repeat requests are served in milliseconds
— across restarts, and shared with whatever artifacts the CLI and
sweeps have already produced under the same cache root.

Hit/miss accounting lands on the service's
:class:`~repro.service.stats.ServiceStats`, so the ``/metrics``
endpoint exposes cache effectiveness without a separate code path.
"""

from __future__ import annotations

from ..core.stages.store import ArtifactStore

__all__ = ["ResultCache"]

#: Namespace prefix keeping result payloads distinct from stage
#: artifacts that might share a fingerprint input space.
_KEY_PREFIX = "served"


class ResultCache:
    """Result payloads by request fingerprint, with hit/miss counters."""

    def __init__(self, store: ArtifactStore, stats=None) -> None:
        self.store = store
        self.stats = stats

    @staticmethod
    def _key(fingerprint: str) -> str:
        return f"{_KEY_PREFIX}_{fingerprint}"

    def get(self, fingerprint: str) -> dict | None:
        """The cached payload, or ``None`` (accounted as hit/miss)."""
        payload = self.store.get(self._key(fingerprint))
        if self.stats is not None:
            if payload is None:
                self.stats.cache_misses += 1
            else:
                self.stats.cache_hits += 1
        return payload

    def put(self, fingerprint: str, payload: dict) -> None:
        """Store a payload (skips degraded results — execution noise
        from a faulty run must never be replayed to later callers)."""
        if payload.get("degraded"):
            return
        self.store.put(self._key(fingerprint), payload)

    def contains(self, fingerprint: str) -> bool:
        return self.store.contains(self._key(fingerprint))
