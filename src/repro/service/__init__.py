"""The Zatel prediction service: an always-on HTTP front-end.

Turns the batch-only reproduction into a long-running server
(``zatel serve``) that amortizes simulator startup, deduplicates
identical in-flight requests, and serves repeated predictions from a
fingerprint-keyed result cache in milliseconds:

* :mod:`.protocol` — request/response JSON schemas and validation;
* :mod:`.queue` — bounded job queue with single-flight coalescing and
  backpressure (429 + ``Retry-After`` when full);
* :mod:`.cache` — result cache layered on the content-addressed
  artifact store;
* :mod:`.server` — the asyncio HTTP front-end plus the worker pool that
  drives the stage graph through the fault-tolerant executor, each
  worker in its own forked job process;
* :mod:`.stats` — the service's counters and latency histograms;
* :mod:`.dashboard` — the ``GET /dashboard`` page and ``/api/*`` JSON
  views (timeline lanes, structured metrics, jobs), shared
  between the live service and ``zatel trace --serve`` offline mode.

Everything is stdlib-only (``asyncio`` streams, hand-rolled HTTP/1.1):
the service adds no dependencies beyond what the simulator needs.
"""

from .cache import ResultCache
from .dashboard import DashboardRouter, TraceSource, make_trace_server, serve_trace
from .protocol import (
    READY_PREFIX,
    format_ready_line,
    parse_predict_payload,
    parse_ready_line,
)
from .queue import Job, JobQueue, QueueClosedError, QueueFullError
from .server import ZatelService

__all__ = [
    "DashboardRouter",
    "Job",
    "JobQueue",
    "QueueClosedError",
    "QueueFullError",
    "READY_PREFIX",
    "ResultCache",
    "TraceSource",
    "ZatelService",
    "format_ready_line",
    "make_trace_server",
    "parse_predict_payload",
    "parse_ready_line",
    "serve_trace",
]
