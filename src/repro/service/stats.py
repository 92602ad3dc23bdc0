"""The prediction service's counters and latency histograms.

:class:`ServiceStats` is a telemetry :class:`~repro.gpu.telemetry.
StatGroup`, registered on the service's bus under the ``service``
component.  The server process and its job processes share this one
definition: a job process records a job's observations into a fresh
instance, and the server adds them into its own with
:meth:`ServiceStats.fold`.
"""

from __future__ import annotations

import os
import threading

from ..gpu.telemetry import Counter, Histogram, MaxGauge, RatioGauge, StatGroup

__all__ = ["SERVICE_LATENCY_EDGES", "ServiceStats", "latency_bucket"]

#: Upper edges (seconds) of the service latency histograms; the last
#: bucket is open-ended.  Roughly logarithmic 1-2-5 steps from 1 ms to
#: 60 s — cached hits land in the first buckets, cold full predictions
#: in the last.
SERVICE_LATENCY_EDGES: tuple[float, ...] = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0, 30.0, 60.0, float("inf"),
)

#: Serializes the read-modify-writes of :meth:`ServiceStats.observe` and
#: :meth:`ServiceStats.fold`, which worker threads run concurrently.
_WRITE_LOCK = threading.Lock()


def _fresh_write_lock() -> None:
    # A process forked while another thread held the lock must not
    # inherit it locked.
    global _WRITE_LOCK
    _WRITE_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_fresh_write_lock)


def latency_bucket(seconds: float) -> int:
    """Histogram bucket index for a latency observation."""
    for index, edge in enumerate(SERVICE_LATENCY_EDGES):
        if seconds < edge:
            return index
    return len(SERVICE_LATENCY_EDGES) - 1


class ServiceStats(StatGroup):
    """The prediction service's counters and latency histograms.

    Registered on the service's :class:`~repro.gpu.telemetry.
    TelemetryBus` under the ``service`` component, so ``GET /metrics``
    is a plain dump of telemetry-bus counters — the same substrate the
    simulator's components report through.  The latency histograms use
    the :data:`SERVICE_LATENCY_EDGES` buckets; record into them with
    :meth:`observe`.
    """

    requests = Counter("HTTP requests received, all endpoints")
    predicts = Counter("POST /predict requests that passed validation")
    cache_hits = Counter("predictions served from the result cache")
    cache_misses = Counter("predictions that had to consult the queue")
    coalesced = Counter("requests coalesced onto an in-flight identical job")
    rejected = Counter("requests rejected with 429 (queue at capacity)")
    invalid = Counter("requests rejected with 400 (validation failure)")
    completed = Counter("jobs that finished successfully")
    failed = Counter("jobs that raised an execution error")
    abandoned = Counter("hung jobs force-failed at the shutdown drain deadline")
    campaigns = Counter("POST /campaigns requests that passed validation")
    campaign_points = Counter("campaign points executed across all campaigns")
    dashboard_hits = Counter("GET /dashboard page loads")
    api_hits = Counter("dashboard JSON API requests (any /api/* route)")
    queue_peak = MaxGauge("high-water mark of queued + running jobs")
    cache_hit_rate = RatioGauge(
        "cache_hits", "predicts", "fraction of accepted predictions served from cache"
    )
    #: Per-stage latency histograms of the request lifecycle.
    queue_seconds = Histogram(
        len(SERVICE_LATENCY_EDGES), "time jobs spent queued before a worker"
    )
    trace_seconds = Histogram(
        len(SERVICE_LATENCY_EDGES), "functional frame-trace stage wall-clock"
    )
    predict_seconds = Histogram(
        len(SERVICE_LATENCY_EDGES), "Zatel pipeline stage wall-clock"
    )
    total_seconds = Histogram(
        len(SERVICE_LATENCY_EDGES), "end-to-end job wall-clock"
    )

    def observe(self, histogram: str, seconds: float) -> None:
        """Record ``seconds`` into the named latency histogram."""
        with _WRITE_LOCK:
            getattr(self, histogram)[latency_bucket(seconds)] += 1

    def fold(self, other: "ServiceStats") -> None:
        """Add what ``other`` recorded into this group, in place.

        Unlike :meth:`StatGroup.merge`, which rewrites every instrument,
        this writes only the statistics ``other`` actually recorded, and
        histogram buckets one by one.  A job's observations therefore
        never overwrite a counter the event loop is incrementing at the
        same time (``cache_hits``, ``requests``), so no update is lost.
        """
        with _WRITE_LOCK:
            for name, instrument in self._instruments.items():
                theirs = getattr(other, name)
                if isinstance(instrument, Histogram):
                    mine = getattr(self, name)
                    for index, count in enumerate(theirs):
                        if count:
                            mine[index] += count
                elif theirs:
                    setattr(
                        self, name, instrument.combine(getattr(self, name), theirs)
                    )

    def histograms(self) -> dict[str, list[int]]:
        """The latency histograms (bucket counts) by name."""
        return {
            name: list(getattr(self, name))
            for name, instrument in self._instruments.items()
            if isinstance(instrument, Histogram)
        }
