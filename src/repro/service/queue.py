"""Bounded job queue with single-flight coalescing and backpressure.

The service front-end is asyncio; the prediction work is synchronous
CPU-bound Python.  The queue is the boundary between the two: HTTP
handlers :meth:`~JobQueue.submit` jobs (from the event loop), worker
threads :meth:`~JobQueue.next` them, and everyone else observes.

Three properties the service relies on:

* **bounded** — at most ``capacity`` jobs queued + running; a submit
  beyond that raises :class:`QueueFullError`, which the front-end maps
  to ``429 Too Many Requests`` with a ``Retry-After`` hint.  Load the
  service cannot absorb is refused early instead of growing an
  unbounded backlog;
* **single-flight** — submits are keyed by the request's result
  fingerprint; a submit whose key is already queued or running returns
  the *existing* :class:`Job` (``created=False``), so N concurrent
  identical requests cost one stage execution and N waiters;
* **drainable** — :meth:`~JobQueue.close` stops intake,
  :meth:`~JobQueue.drain` blocks until in-flight jobs finish — the
  graceful-shutdown path.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any

from ..core.stages.singleflight import SingleFlight

__all__ = [
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "Job",
    "JobQueue",
    "QueueClosedError",
    "QueueFullError",
]

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"


class QueueFullError(RuntimeError):
    """The queue is at capacity; the caller should retry later."""

    def __init__(self, capacity: int, retry_after: float = 1.0) -> None:
        super().__init__(
            f"job queue at capacity ({capacity} queued + running); "
            f"retry in {retry_after:g}s"
        )
        self.capacity = capacity
        self.retry_after = retry_after


class QueueClosedError(RuntimeError):
    """The queue no longer accepts submissions (service shutting down)."""


class Job:
    """One prediction job's lifecycle: queued -> running -> done/failed."""

    __slots__ = (
        "id", "key", "spec", "status", "result", "error",
        "submitted_at", "started_at", "finished_at", "_done",
    )

    def __init__(self, job_id: str, key: str, spec: Any) -> None:
        self.id = job_id
        self.key = key
        self.spec = spec
        self.status = JOB_QUEUED
        self.result: dict | None = None
        self.error: str | None = None
        self.submitted_at = time.monotonic()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._done = threading.Event()

    @property
    def finished(self) -> bool:
        return self.status in (JOB_DONE, JOB_FAILED)

    def queue_seconds(self) -> float:
        """Time spent waiting for a worker (up to now if still queued)."""
        started = self.started_at
        return (started if started is not None else time.monotonic()) - self.submitted_at

    def total_seconds(self) -> float | None:
        """Submit-to-finish wall clock, or ``None`` while unfinished."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finishes; ``False`` on timeout."""
        return self._done.wait(timeout)

    def describe(self) -> dict:
        """JSON-able status (the ``GET /jobs/<id>`` body, sans result)."""
        return {
            "job": self.id,
            "status": self.status,
            "queue_seconds": round(self.queue_seconds(), 6),
            "total_seconds": (
                round(self.total_seconds(), 6) if self.finished_at else None
            ),
            "error": self.error,
        }

    # -- worker-side transitions (called with the queue lock held) ------

    def _start(self) -> None:
        self.status = JOB_RUNNING
        self.started_at = time.monotonic()

    def _finish(self, result: dict | None, error: BaseException | None) -> None:
        self.finished_at = time.monotonic()
        if error is None:
            self.status = JOB_DONE
            self.result = result
        else:
            self.status = JOB_FAILED
            self.error = f"{type(error).__name__}: {error}"
        self._done.set()


class JobQueue:
    """Thread-safe bounded queue of single-flight prediction jobs."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self._cond = threading.Condition()
        self._pending: deque[Job] = deque()
        self._running_jobs: set[Job] = set()
        self._flights = SingleFlight()
        self._closed = False
        self._counter = 0

    # -- submission (front-end side) ------------------------------------

    def submit(self, key: str, spec: Any) -> tuple[Job, bool]:
        """Enqueue a job for ``key``, or coalesce onto the in-flight one.

        Returns ``(job, created)``.  ``created=False`` means an
        identical request is already queued or running and the caller
        should wait on that job instead.

        Raises:
            QueueClosedError: after :meth:`close`.
            QueueFullError: at capacity (counts queued + running).
        """
        with self._cond:
            if self._closed:
                raise QueueClosedError("service is shutting down")

            def make() -> Job:
                if self.depth >= self.capacity:
                    raise QueueFullError(
                        self.capacity, retry_after=self._retry_after()
                    )
                self._counter += 1
                return Job(f"j{self._counter:06d}", key, spec)

            job, created = self._flights.join(key, make)
            if created:
                self._pending.append(job)
                self._cond.notify()
            return job, created

    def _retry_after(self) -> float:
        """Back-of-envelope wait hint: one second per queued job, >= 1."""
        return float(max(1, len(self._pending)))

    # -- consumption (worker side) --------------------------------------

    def next(self, timeout: float | None = None) -> Job | None:
        """The next queued job (marked running), or ``None``.

        ``None`` means the queue closed and emptied (worker should
        exit), or ``timeout`` elapsed with nothing to do.
        """
        with self._cond:
            deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            while not self._pending:
                if self._closed:
                    return None
                remaining = (
                    deadline - time.monotonic() if deadline is not None else None
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)
            job = self._pending.popleft()
            self._running_jobs.add(job)
            job._start()
            return job

    def complete(
        self, job: Job, result: dict | None = None,
        error: BaseException | None = None,
    ) -> None:
        """Mark ``job`` finished and release its single-flight key.

        Idempotent against :meth:`abandon`: a worker thread that was
        stuck past the drain deadline (its job already recorded as
        failed-degraded) completes here as a no-op instead of
        double-finishing.
        """
        with self._cond:
            self._running_jobs.discard(job)
            self._flights.finish(job.key)
            if not job.finished:
                job._finish(result, error)
            self._cond.notify_all()

    # -- observation ----------------------------------------------------

    @property
    def depth(self) -> int:
        """Jobs queued + running (the capacity denominator)."""
        return len(self._pending) + len(self._running_jobs)

    @property
    def queued(self) -> int:
        return len(self._pending)

    @property
    def running(self) -> int:
        return len(self._running_jobs)

    @property
    def closed(self) -> bool:
        return self._closed

    def inflight(self, key: str) -> Job | None:
        """The queued/running job for ``key``, if any."""
        return self._flights.get(key)

    # -- shutdown -------------------------------------------------------

    def close(self) -> None:
        """Stop accepting submissions; wake idle workers so they exit."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every accepted job finishes; ``False`` on timeout.

        Call :meth:`close` first, or new submissions can extend the wait
        indefinitely.
        """
        deadline = time.monotonic() + timeout if timeout is not None else None
        with self._cond:
            while self._pending or self._running_jobs:
                remaining = (
                    deadline - time.monotonic() if deadline is not None else None
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def abandon(self, reason: str) -> int:
        """Force-finish every unfinished job as failed; returns how many.

        The graceful-shutdown watchdog calls this after :meth:`drain`
        times out: a job hung inside a simulation is recorded as failed —
        its waiters wake with an error instead of blocking forever — and
        the process can exit cleanly.
        The eventual ``complete()`` from the stuck worker thread, if it
        ever lands, is a no-op.
        """
        error = RuntimeError(reason)
        with self._cond:
            abandoned = 0
            for job in list(self._pending) + list(self._running_jobs):
                if not job.finished:
                    job._finish(None, error)
                    abandoned += 1
                self._flights.finish(job.key)
            self._pending.clear()
            self._running_jobs.clear()
            self._cond.notify_all()
            return abandoned
