"""The asyncio HTTP front-end and worker pool of ``zatel serve``.

Architecture (stdlib only)::

    server process
      asyncio event loop (HTTP/1.1 over asyncio streams)
        POST /predict   validate -> fingerprint -> result cache ->
                        bounded single-flight queue -> await job
        GET  /jobs/<id> job status / result
        GET  /healthz   liveness (always 200 while the process serves)
        GET  /readyz    readiness (503 + reasons when saturated or
                        draining)
        GET  /metrics   telemetry-bus counters + latency histograms
                   |
              JobQueue (bounded, single-flight, 429 on overflow)
                   |
      worker threads (N)  ->  ServiceRunner.execute(spec, child=...)
                   |  pipe: spec out; payload, job stats and
                   |  timeline records back
    job processes (N, one per worker thread, forked at start)
      ServiceRunner.execute_local(spec)
        -> stage graph over the shared on-disk ArtifactStore,
           groups through the fault-tolerant GroupExecutor

The front-end never blocks the event loop on simulation work: waiting
handlers park on the job's event via ``asyncio.to_thread``.  A worker
thread hands each job to its own job process and waits on the pipe
without holding the GIL, so tracing and simulation never compete with
the loop that answers cached hits, and N misses use N cores.  The
result cache, the queue and single-flight stay in the server process;
a job process only writes stage artifacts to the shared store.  A job
process that dies mid-job fails that job as ``WorkerCrashError`` and is
replaced before the next one.  With an injected ``executor_fn``, or on a
platform without ``fork``, jobs run in the worker threads instead.
Per-prediction parallelism still comes from ``GroupExecutor``'s forked
workers (``ExecutionPolicy.workers`` on the service policy), which fork
from inside the job process.

Shutdown is graceful by default: stop intake (new submits get 503),
drain in-flight jobs, then stop the loop — so a deploy never discards
accepted work.  Job processes exit when their pipe closes, and the
server reaps every one before it exits.
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import multiprocessing
import os
import signal
import stat
import threading
import time
from collections import OrderedDict
from typing import Any, Callable

from .. import errors
from ..core.stages.store import StoreStats
from ..errors import WorkerCrashError
from ..gpu.telemetry import TelemetryBus
from ..harness.service import ServiceRunner
from .cache import ResultCache
from .dashboard import DashboardRouter, RawBody, histogram_views, structure_counters
from .protocol import (
    format_ready_line,
    parse_campaign_payload,
    parse_predict_payload,
)
from .queue import JOB_DONE, JobQueue, QueueClosedError, QueueFullError
from .stats import SERVICE_LATENCY_EDGES, ServiceStats

__all__ = ["ZatelService"]

logger = logging.getLogger("repro.service")

#: Largest accepted request body; a predict body is a few hundred bytes.
MAX_BODY_BYTES = 1 << 20

#: Per-connection header/body read budget (seconds).
READ_TIMEOUT = 30.0

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ZatelService:
    """The prediction service: front-end, queue, workers, caches.

    Args:
        runner: harness :class:`~repro.harness.runner.Runner` providing
            the shared artifact store (default: the process-wide one).
        host/port: bind address; ``port=0`` picks an ephemeral port
            (``self.port`` holds the real one once ``started`` is set).
        workers: worker threads consuming the job queue; each runs its
            jobs in its own forked job process (see
            :meth:`_start_workers`), so ``workers`` jobs run at once.
        queue_capacity: max queued + running jobs before 429s.
        policy: :class:`~repro.core.executor.ExecutionPolicy` applied to
            every served prediction (e.g. forked group workers).
        executor_fn: override of the per-spec execution function —
            tests inject deterministic/blocking stand-ins here.  It runs
            in the worker thread, not in a job process.
        use_cache: serve repeat requests from the result cache.
        wait_timeout: cap on how long a ``wait=true`` request blocks
            before returning 504 with the job id (``None`` = unbounded).
        drain_timeout: graceful-shutdown budget for in-flight jobs;
            jobs still running at the deadline are abandoned as failed,
            and their job processes killed, so the process exits
            cleanly.
        timeline_interval: snapshot interval (cycles) for the telemetry
            instrumentation served predictions run with so the dashboard
            has timelines to show; ``0`` disables instrumentation (and
            ``/api/timeline`` reports no captures).  Enabling telemetry
            never changes a prediction's metrics, so cached/golden
            results are unaffected.
        trace_history: how many recent prediction timelines the
            dashboard keeps (a bounded ring; oldest evicted first).
    """

    def __init__(
        self,
        runner=None,
        host: str = "127.0.0.1",
        port: int = 8700,
        workers: int = 2,
        queue_capacity: int = 16,
        policy=None,
        executor_fn: Callable[[Any], dict] | None = None,
        use_cache: bool = True,
        wait_timeout: float | None = 600.0,
        drain_timeout: float = 60.0,
        job_history: int = 1024,
        timeline_interval: int = 1024,
        trace_history: int = 8,
    ) -> None:
        if workers < 1:
            raise ValueError("service needs at least one worker")
        self.service_runner = ServiceRunner(
            runner,
            policy=policy,
            timeline_interval=timeline_interval,
            timeline_sink=self._record_trace,
        )
        self.host = host
        self.port = port
        self.num_workers = workers
        self.wait_timeout = wait_timeout
        self.drain_timeout = drain_timeout
        self.job_history = job_history

        self.stats = ServiceStats()
        # interval=1 keeps the bus enabled so /metrics is a literal dump
        # of telemetry-bus counters; the service never drives advance().
        self.bus = TelemetryBus(interval=1)
        self.bus.register("service", self.stats)
        self.queue = JobQueue(queue_capacity)
        self.cache = (
            ResultCache(self.service_runner.runner.store, self.stats)
            if use_cache
            else None
        )
        self.jobs: OrderedDict[str, Any] = OrderedDict()
        self._jobs_lock = threading.Lock()
        self.trace_history = trace_history
        self._traces: OrderedDict[str, dict] = OrderedDict()
        self._traces_lock = threading.Lock()
        self._trace_counter = 0
        self.dashboard = DashboardRouter(self, stats=self.stats)
        self._executor_fn = executor_fn
        self._worker_threads: list[threading.Thread] = []
        self._children: list[_JobChild] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self.started = threading.Event()
        self._start_time = time.monotonic()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Serve until :meth:`shutdown` (or KeyboardInterrupt); blocking."""
        try:
            asyncio.run(self._serve())
        except KeyboardInterrupt:
            # _serve's finally already drained; nothing left to do.
            pass

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._start_time = time.monotonic()
        # Before the listener binds, so no job process holds its socket.
        self._start_workers()
        server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        logger.info(
            "zatel service listening on http://%s:%d (%d workers, queue %d)",
            self.host, self.port, self.num_workers, self.queue.capacity,
        )
        # Machine-readable port report: launchers binding --port 0 read
        # the kernel-chosen port from this line (see protocol.READY_PREFIX).
        print(format_ready_line(self.host, self.port), flush=True)
        self.started.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            self.started.clear()
            self._drain()

    def shutdown(self) -> None:
        """Request a graceful stop (thread-safe; returns immediately)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(stop.set)

    def background(self):
        """Context manager running the service in a daemon thread.

        ::

            with ZatelService(port=0).background() as service:
                url = f"http://127.0.0.1:{service.port}"
        """
        from contextlib import contextmanager

        @contextmanager
        def _running():
            thread = threading.Thread(target=self.run, daemon=True)
            thread.start()
            if not self.started.wait(timeout=15.0):
                raise RuntimeError("service failed to start within 15s")
            try:
                yield self
            finally:
                self.shutdown()
                thread.join(timeout=self.drain_timeout + 15.0)

        return _running()

    def _drain(self) -> None:
        """Graceful-shutdown tail: stop intake, finish accepted work.

        Jobs still unfinished at the drain deadline (a hung simulation)
        are *abandoned* — recorded as failed so their waiters wake with
        an error — and the process exits cleanly instead of blocking on
        them forever.  The job processes are
        killed at that deadline; otherwise each exits when its pipe
        closes.  Either way every one is reaped before this returns.
        """
        inflight = self.queue.depth
        self.queue.close()
        if inflight:
            logger.info("draining %d in-flight job(s)", inflight)
        if not self.queue.drain(timeout=self.drain_timeout):
            abandoned = self.queue.abandon(
                f"service shut down with the job still running after the "
                f"{self.drain_timeout:g}s drain deadline"
            )
            self.stats.failed += abandoned
            self.stats.abandoned += abandoned
            logger.warning(
                "drain timed out after %gs; abandoned %d hung job(s) as failed",
                self.drain_timeout, abandoned,
            )
            for child in self._children:
                child.kill()
        for thread in self._worker_threads:
            thread.join(timeout=5.0)
        self._worker_threads.clear()
        for child in self._children:
            child.close()
        self._children.clear()

    # ------------------------------------------------------------------
    # worker pool
    # ------------------------------------------------------------------

    def _execute_job(self, spec, child: "_JobChild | None" = None) -> dict:
        """Default per-job execution: dispatch on the submitted type.

        The queue carries both single :class:`PredictSpec`\\ s and whole
        :class:`~repro.core.stages.campaign.Campaign`\\ s; the worker
        pool, single-flight coalescing and drain semantics are shared.
        With a ``child``, the job body runs in that job process.
        """
        from ..core.stages.campaign import Campaign

        runner = self.service_runner
        if isinstance(spec, Campaign):
            return runner.execute_campaign(spec, stats=self.stats, child=child)
        return runner.execute(spec, stats=self.stats, child=child)

    def _start_workers(self) -> None:
        """Start the worker threads, deciding once where jobs run.

        By default each worker owns a job process (:class:`_JobChild`),
        all forked here before any worker thread starts.  A job then
        holds no GIL in this process, so the event loop answers cached
        hits at full speed while misses simulate.  Jobs stay in the
        worker thread for an injected ``executor_fn`` and on a platform
        without ``fork``.
        """
        in_thread = (
            self._executor_fn is not None
            or "fork" not in multiprocessing.get_all_start_methods()
        )
        if in_thread:
            runs = [self._executor_fn or self._execute_job] * self.num_workers
        else:
            _import_job_path()
            self._children = [
                _JobChild(self.service_runner, f"zatel-job-{index}")
                for index in range(self.num_workers)
            ]
            runs = [
                functools.partial(self._execute_job, child=child)
                for child in self._children
            ]
        for index, run in enumerate(runs):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(run,),
                name=f"zatel-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._worker_threads.append(thread)

    def _worker_loop(self, run: Callable[[Any], dict]) -> None:
        queue = self.queue
        while True:
            job = queue.next(timeout=0.2)
            if job is None:
                if queue.closed:
                    return
                continue
            self.stats.observe("queue_seconds", job.queue_seconds())
            try:
                payload = run(job.spec)
            except Exception as error:  # noqa: BLE001 - job isolation boundary
                # A job process's exception arrives under its own type
                # name and a dead one as WorkerCrashError; a job whose
                # process the drain deadline killed is already counted
                # as abandoned.
                if not job.finished:
                    logger.warning(
                        "job %s failed: %s: %s", job.id, type(error).__name__, error
                    )
                    self.stats.failed += 1
                queue.complete(job, error=error)
            else:
                if self.cache is not None:
                    self.cache.put(job.key, payload)
                self.stats.completed += 1
                queue.complete(job, result=payload)
                total = job.total_seconds()
                if total is not None:
                    self.stats.observe("total_seconds", total)

    # ------------------------------------------------------------------
    # HTTP front-end
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, query, headers, body = await asyncio.wait_for(
                    self._read_request(reader), timeout=READ_TIMEOUT
                )
            except asyncio.TimeoutError:
                return
            except _HttpError as error:
                await self._respond(writer, error.status, {"error": str(error)})
                return
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            status, payload, extra_headers = await self._route(
                method, path, body, query
            )
            await self._respond(writer, status, payload, extra_headers)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, str, dict[str, str], bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {request_line!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        if method == "POST":
            raw_length = headers.get("content-length")
            if raw_length is None:
                raise _HttpError(411, "POST requires a Content-Length header")
            try:
                length = int(raw_length)
            except ValueError:
                raise _HttpError(
                    400, f"invalid Content-Length {raw_length!r}"
                ) from None
            if length > MAX_BODY_BYTES:
                raise _HttpError(
                    413, f"request body exceeds {MAX_BODY_BYTES} bytes"
                )
            body = await reader.readexactly(length)
        path, _, query = target.partition("?")
        return method, path, query, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | RawBody,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        if isinstance(payload, RawBody):
            body, content_type = payload.body, payload.content_type
        else:
            body = json.dumps(payload, sort_keys=True).encode()
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes, query: str = ""
    ) -> tuple[int, dict | RawBody, dict[str, str] | None]:
        self.stats.requests += 1
        if self.dashboard.handles(path):
            status, payload = self.dashboard.route(method, path, query)
            return status, payload, None
        if path == "/predict":
            if method != "POST":
                return 405, {"error": "use POST /predict"}, None
            return await self._handle_predict(body)
        if path == "/campaigns":
            if method != "POST":
                return 405, {"error": "use POST /campaigns"}, None
            return await self._handle_campaign(body)
        if method != "GET":
            return 405, {"error": f"{method} not supported on {path}"}, None
        if path == "/healthz":
            return 200, self._health_payload(), None
        if path == "/readyz":
            return self._handle_ready()
        if path == "/metrics":
            return 200, self._metrics_payload(), None
        if path.startswith("/jobs/"):
            return self._handle_job(path[len("/jobs/"):])
        if path.startswith("/campaigns/"):
            # Campaign jobs live in the same tracked-job table.
            return self._handle_job(path[len("/campaigns/"):])
        return 404, {"error": f"unknown path {path!r}"}, None

    async def _handle_predict(
        self, body: bytes
    ) -> tuple[int, dict, dict[str, str] | None]:
        try:
            payload = json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            self.stats.invalid += 1
            return 400, {"error": f"request body is not valid JSON: {error}"}, None
        try:
            spec, wait = parse_predict_payload(payload)
        except ValueError as error:
            self.stats.invalid += 1
            return 400, {"error": str(error)}, None
        self.stats.predicts += 1
        key = self.service_runner.fingerprint(spec)
        return await self._submit(key, spec, wait)

    async def _handle_campaign(
        self, body: bytes
    ) -> tuple[int, dict, dict[str, str] | None]:
        try:
            payload = json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            self.stats.invalid += 1
            return 400, {"error": f"request body is not valid JSON: {error}"}, None
        try:
            campaign, wait = parse_campaign_payload(payload)
        except ValueError as error:
            self.stats.invalid += 1
            return 400, {"error": str(error)}, None
        self.stats.campaigns += 1
        key = self.service_runner.campaign_fingerprint(campaign)
        return await self._submit(key, campaign, wait)

    async def _submit(
        self, key: str, spec, wait: bool
    ) -> tuple[int, dict, dict[str, str] | None]:
        """Shared result-cache -> single-flight-queue -> wait tail of
        ``POST /predict`` and ``POST /campaigns``."""
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return 200, {**cached, "cached": True, "coalesced": False}, None

        try:
            job, created = self.queue.submit(key, spec)
        except QueueClosedError:
            return 503, {"error": "service is shutting down"}, None
        except QueueFullError as error:
            self.stats.rejected += 1
            return (
                429,
                {"error": str(error), "retry_after": error.retry_after},
                {"Retry-After": f"{error.retry_after:g}"},
            )
        if not created:
            self.stats.coalesced += 1
        depth = self.queue.depth
        if depth > self.stats.queue_peak:
            self.stats.queue_peak = depth
        self._remember(job)

        if not wait:
            return 202, {**job.describe(), "cached": False}, None
        finished = await asyncio.to_thread(job.wait, self.wait_timeout)
        if not finished:
            return (
                504,
                {
                    **job.describe(),
                    "error": (
                        f"prediction still running after {self.wait_timeout:g}s; "
                        f"poll GET /jobs/{job.id}"
                    ),
                },
                None,
            )
        if job.status == JOB_DONE:
            return (
                200,
                {**job.result, "cached": False, "coalesced": not created,
                 "job": job.id},
                None,
            )
        return 500, {**job.describe()}, None

    def _handle_job(self, job_id: str) -> tuple[int, dict, None]:
        with self._jobs_lock:
            job = self.jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}, None
        payload = job.describe()
        if job.status == JOB_DONE:
            payload["result"] = job.result
        return 200, payload, None

    def _remember(self, job) -> None:
        """Track the job for ``/jobs/<id>``, evicting old finished ones."""
        with self._jobs_lock:
            self.jobs[job.id] = job
            while len(self.jobs) > self.job_history:
                for job_id, tracked in self.jobs.items():
                    if tracked.finished:
                        del self.jobs[job_id]
                        break
                else:
                    break  # everything in flight: allow temporary growth

    # ------------------------------------------------------------------
    # observability payloads
    # ------------------------------------------------------------------

    def _handle_ready(self) -> tuple[int, dict, None]:
        """``GET /readyz``: readiness, as opposed to ``/healthz`` liveness.

        Liveness answers "is the process up?" — always 200 while
        serving, so orchestrators do not restart a merely-busy service.
        Readiness answers "should this instance receive traffic *now*?"
        — 503 with machine-readable reasons while the queue is saturated
        or the service drains, so load balancers can route around a
        struggling instance without killing it.
        """
        reasons: list[str] = []
        if self.queue.closed:
            reasons.append("shutting_down: the service is draining")
        elif self.queue.depth >= self.queue.capacity:
            reasons.append(
                f"queue_saturated: {self.queue.depth}/{self.queue.capacity} "
                "jobs queued + running; new predicts would be rejected"
            )
        if reasons:
            return 503, {"status": "unavailable", "reasons": reasons}, None
        return 200, {"status": "ready", "reasons": []}, None

    def _health_payload(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": round(time.monotonic() - self._start_time, 3),
            "workers": self.num_workers,
            "queue_depth": self.queue.depth,
            "cache": self.cache is not None,
        }

    def _metrics_payload(self) -> dict:
        own = self.service_runner.runner.store.stats
        jobs = self.service_runner.child_store_stats
        edges = [
            None if edge == float("inf") else edge
            for edge in SERVICE_LATENCY_EDGES
        ]
        return {
            "counters": self.bus.counters(),
            "derived": {"service.cache_hit_rate": self.stats.cache_hit_rate},
            "histograms": {
                f"service.{name}": {"edges": edges, "counts": counts}
                for name, counts in self.stats.histograms().items()
            },
            "queue": {
                "depth": self.queue.depth,
                "queued": self.queue.queued,
                "running": self.queue.running,
                "capacity": self.queue.capacity,
                "closed": self.queue.closed,
            },
            # This process's result-cache traffic plus the stage-artifact
            # traffic of every job run in a job process.
            "store": {
                name: getattr(own, name) + getattr(jobs, name)
                for name in (
                    "memory_hits", "disk_hits", "misses", "writes", "corrupt"
                )
            },
            "uptime_seconds": round(time.monotonic() - self._start_time, 3),
        }

    # ------------------------------------------------------------------
    # dashboard source (consumed by service.dashboard.DashboardRouter)
    # ------------------------------------------------------------------

    def _record_trace(self, label: str, events, total_cycles, deltas) -> None:
        """Timeline sink: keep a served prediction's telemetry.

        Called by :class:`ServiceRunner` from worker threads after each
        instrumented prediction; the ring holds the most recent
        ``trace_history`` captures for ``/api/timeline``.
        """
        with self._traces_lock:
            self._trace_counter += 1
            trace_id = f"t{self._trace_counter}"
            self._traces[trace_id] = {
                "id": trace_id,
                "label": label,
                "cycles": total_cycles,
                "events": events,
                "deltas": deltas,
            }
            while len(self._traces) > self.trace_history:
                self._traces.popitem(last=False)

    def timeline_traces(self) -> list[dict]:
        with self._traces_lock:
            return [
                {
                    "id": trace["id"],
                    "label": trace["label"],
                    "cycles": trace["cycles"],
                    "events": len(trace["events"]),
                }
                for trace in self._traces.values()
            ]

    def timeline_trace(self, trace_id: str | None):
        with self._traces_lock:
            if not self._traces:
                return None
            if trace_id is None:
                trace = next(reversed(self._traces.values()))
            else:
                trace = self._traces.get(trace_id)
                if trace is None:
                    return None
            return trace["events"], trace["cycles"], trace["deltas"]

    def metrics_view(self) -> dict:
        """``/api/metrics``: the telemetry bus, structured per component."""
        flat = self._metrics_payload()
        return {
            "mode": "service",
            "counters": structure_counters(flat["counters"]),
            "derived": {
                "cache_hit_rate": self.stats.cache_hit_rate,
            },
            "histograms": histogram_views(self.stats.histograms()),
            "queue": flat["queue"],
            "store": flat["store"],
            "uptime_seconds": flat["uptime_seconds"],
        }

    def jobs_view(self) -> dict:
        with self._jobs_lock:
            described = [job.describe() for job in self.jobs.values()]
        return {
            "jobs": described,
            "tracked": len(described),
            "queue": {
                "depth": self.queue.depth,
                "queued": self.queue.queued,
                "running": self.queue.running,
                "capacity": self.queue.capacity,
            },
        }

    def campaigns_view(self) -> dict:
        """``/api/campaigns``: campaign jobs with per-point QC verdicts."""
        from ..core.stages.campaign import Campaign

        with self._jobs_lock:
            jobs = [
                (job, job.result)
                for job in self.jobs.values()
                if isinstance(job.spec, Campaign)
            ]
        campaigns = []
        for job, result in jobs:
            entry = job.describe()
            if result is not None:
                entry["campaign"] = result.get("campaign")
                entry["succeeded"] = result.get("succeeded")
                entry["points"] = [
                    {
                        "point": point.get("point"),
                        "verdict": point.get("verdict"),
                        "violations": point.get("violations", []),
                    }
                    for point in result.get("points", [])
                ]
            campaigns.append(entry)
        return {
            "campaigns": campaigns,
            "executed_points": self.stats.campaign_points,
            "accepted": self.stats.campaigns,
        }


class _HttpError(Exception):
    """Protocol-level failure mapped straight to an HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


# ----------------------------------------------------------------------
# job processes
# ----------------------------------------------------------------------


class _JobChild:
    """One worker's long-lived job process, forked from the server.

    Calling it, ``child(kind, spec)``, sends the job over a pipe and
    blocks on the reply without holding the GIL; the process runs
    :meth:`ServiceRunner.execute_local` (``kind == "predict"``) or
    :meth:`ServiceRunner.execute_campaign_local` (``"campaign"``)
    against the same on-disk store and answers ``(payload, job_stats,
    store_stats, timelines)`` — see :meth:`ServiceRunner._in_child`.  A
    job's exception comes back under its own type name.  A process that dies
    mid-job fails the job as :class:`~repro.errors.WorkerCrashError`
    and is replaced before the next one.

    Forked rather than spawned, so each process starts from the server's
    warm heap.  A replacement is forked from a worker thread while other
    threads run; the job path takes no lock those threads hold except
    the stats lock, which :mod:`.stats` renews in the child.
    """

    #: Seconds between liveness checks while a job runs: a dead process
    #: whose pipe a grandchild still holds open gives no EOF.
    POLL_SECONDS = 0.5

    def __init__(self, service_runner: ServiceRunner, name: str) -> None:
        self.service_runner = service_runner
        self.name = name
        self._spawn()

    def _spawn(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conn, child_end = ctx.Pipe()
        # Not daemonic: GroupExecutor forks its own workers in here.
        self.process = ctx.Process(
            target=_child_main,
            args=(child_end, self.service_runner),
            name=self.name,
        )
        self.process.start()
        child_end.close()

    def __call__(self, kind: str, spec) -> tuple:
        if not self.process.is_alive():
            self.conn.close()
            self._spawn()
        try:
            self.conn.send((kind, spec))
            while not self.conn.poll(self.POLL_SECONDS):
                if not self.process.is_alive():
                    break
            reply = self.conn.recv() if self.conn.poll() else None
        except (EOFError, OSError):
            reply = None
        if reply is None:
            self.kill()
            raise WorkerCrashError(
                f"job process {self.process.pid} died with exit code "
                f"{self.process.exitcode} before replying"
            )
        if reply[0] == "error":
            raise _remote_error(reply[1], reply[2])
        return reply[1:]

    def kill(self) -> None:
        """Kill and reap the process; a no-op kill if it is already dead."""
        self.process.kill()
        self.process.join()

    def close(self, timeout: float = 5.0) -> None:
        """Close the pipe, so the process exits, and reap it."""
        self.conn.close()
        self.process.join(timeout)
        if self.process.is_alive():
            self.kill()


def _child_main(conn, service_runner: ServiceRunner) -> None:
    """Job-process entry: run jobs from ``conn`` until it reaches EOF.

    After each reply the store's memo is dropped, so the process's
    memory stays bounded however many distinct jobs it runs; a later job
    re-reads what it needs from the on-disk store.
    """
    # The server's SIGTERM handler would drain a loop this process does
    # not run, and Ctrl-C is the server's to handle.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _close_inherited_sockets(keep=conn.fileno())
    timelines: list[tuple] = []
    service_runner.timeline_sink = lambda *record: timelines.append(record)
    store = service_runner.runner.store
    while True:
        try:
            kind, spec = conn.recv()
        except EOFError:
            return
        stats = ServiceStats()
        store.stats = StoreStats()
        timelines.clear()
        if kind == "campaign":
            body = service_runner.execute_campaign_local
        else:
            body = service_runner.execute_local
        try:
            reply = ("ok", body(spec, stats), stats, store.stats, list(timelines))
        except Exception as error:  # noqa: BLE001 - re-raised by the worker thread
            reply = ("error", type(error).__name__, str(error))
        try:
            conn.send(reply)
        except OSError:  # the server is gone
            return
        store.clear_memory()


def _remote_error(name: str, message: str) -> Exception:
    """A job process's exception, rebuilt under its own type name.

    :mod:`repro.errors` types come back as themselves; any other as a
    stand-in class of the same name.  Either way the job's error reads
    ``"<Type>: <message>"`` exactly as it would have in-thread.
    """
    known = getattr(errors, name, None)
    if isinstance(known, type) and issubclass(known, errors.SimulationError):
        return known(message)
    return type(name, (Exception,), {})(message)


def _close_inherited_sockets(keep: int) -> None:
    """Close every socket a job process inherited except its pipe.

    The initial processes are forked before the listener binds, but a
    replacement forked later would otherwise hold the listening socket
    and open client connections.  The Python objects owning them stay
    unused here, and the process leaves through ``os._exit``, so nothing
    closes those descriptors a second time.
    """
    try:
        descriptors = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # no /proc: keep what was inherited
        return
    for fd in descriptors:
        if fd <= 2 or fd == keep:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:  # the listing's own descriptor, already closed
            pass


def _import_job_path() -> None:
    """Import what a job imports lazily, once, before the forks.

    Scene builds load ``numpy.random`` and ``numpy.ma`` on first use;
    loaded here, every job process inherits them instead of paying for
    them during warm-up.
    """
    import numpy.ma  # noqa: F401
    import numpy.random  # noqa: F401
