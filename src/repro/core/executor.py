"""Fault-tolerant execution engine for per-group simulation tasks.

The paper deploys Zatel's K group simulations "simultaneously on
different CPU cores" — exactly the regime where workers crash, hang, or
get OOM-killed, and where a long sweep must survive partial failure
rather than restart from zero.  :class:`GroupExecutor` runs indexed
tasks with:

* **crash isolation** — each attempt runs in its own forked worker
  process, so a dead worker fails only its task;
* **per-attempt timeouts** — a hung worker is killed and charged a
  :class:`~repro.errors.GroupTimeoutError`;
* **bounded retries** — exponential backoff with deterministic seeded
  jitter (no wall-clock or PID entropy, so schedules are reproducible).
  Only what a second attempt can change is retried: a crash, a timeout,
  a lost worker or a :class:`~repro.errors.SimulationError`.  A task's
  ``ValueError``, ``KeyError`` or ``TypeError`` comes from its inputs,
  so it fails on its first attempt with a non-retryable
  :class:`~repro.errors.FailureRecord`;
* **checkpointing** — each completed group's result is pickled
  atomically under ``checkpoint_dir``, and ``resume=True`` reloads
  completed groups instead of recomputing them.  Corrupt checkpoints
  are deleted and recomputed (logged as
  :class:`~repro.errors.CacheCorruptionError`).

Tasks are callables ``task(index, attempt) -> result``; results must be
picklable when worker processes are used.  With ``workers <= 1`` tasks
run in-process with the same retry and checkpoint semantics; timeouts
are then best-effort only (there is no safe way to preempt in-process
Python).  On platforms without the ``fork`` start method a ``workers >
1`` request degrades to the same serial path — *loudly*: a warning is
logged and ``ExecutionReport.serial_fallback`` is set so callers (and
``ZatelResult``) can surface that the requested parallelism was not
honored.

Fault injection for tests plugs in via a duck-typed plan object (see
:mod:`repro.testing.faults`) with two methods: ``apply(index, attempt,
in_process)`` called before each attempt, and
``corrupts_checkpoint(index)`` consulted after each checkpoint write.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import pickle
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..errors import (
    CacheCorruptionError,
    FailureRecord,
    GroupTimeoutError,
    WorkerCrashError,
)

__all__ = ["ExecutionPolicy", "ExecutionReport", "GroupExecutor", "default_quorum"]

logger = logging.getLogger("repro.executor")

#: Task errors a second attempt cannot change: they fail at once.
_DETERMINISTIC_ERRORS = (ValueError, KeyError, TypeError)

#: Unpickling failure modes treated as "corrupt file, recompute".
_CORRUPT_PICKLE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    ValueError,
)


def default_quorum(total_groups: int) -> int:
    """Minimum surviving groups for an honest combine: ``ceil(K/2)``."""
    return math.ceil(total_groups / 2)


@dataclass(frozen=True)
class ExecutionPolicy:
    """Execution knobs, separate from the :class:`ZatelConfig` methodology
    knobs — they change *how* groups run, never *what* they compute.

    Attributes:
        workers: concurrent worker processes (``<= 1`` runs in-process).
        timeout: per-attempt wall-clock budget in seconds (``None`` =
            unlimited; enforced only under process isolation).
        retries: re-attempts after the first try (total attempts =
            ``retries + 1``).
        backoff_base: first retry delay in seconds; doubles per attempt.
        backoff_cap: upper bound on any single retry delay.
        seed: jitter seed — the full retry schedule is a pure function of
            ``(seed, group index, attempt)``.
        checkpoint_dir: directory for per-group result pickles (``None``
            disables checkpointing).
        resume: load completed groups from ``checkpoint_dir`` instead of
            recomputing them.
        quorum: minimum surviving groups a degraded combine tolerates;
            ``None`` means :func:`default_quorum`.
    """

    workers: int = 1
    timeout: float | None = None
    retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    seed: int = 0
    checkpoint_dir: str | Path | None = None
    resume: bool = False
    quorum: int | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.quorum is not None and self.quorum < 1:
            raise ValueError("quorum must be >= 1 (or None for ceil(K/2))")

    def backoff_delay(self, index: int, attempt: int) -> float:
        """Deterministic backoff before retry ``attempt`` of group ``index``.

        ``base * 2**(attempt-1) * (1 + jitter)`` capped at ``backoff_cap``,
        with jitter in [0, 1) drawn from a seeded, stateless RNG.
        """
        jitter = random.Random(
            (self.seed * 1_000_003 + index) * 97 + attempt
        ).random()
        delay = self.backoff_base * (2.0 ** max(0, attempt - 1)) * (1.0 + jitter)
        return min(self.backoff_cap, delay)


@dataclass
class ExecutionReport:
    """Everything :meth:`GroupExecutor.run` observed.

    ``results`` maps group index to task result for every group that
    succeeded (or was resumed from a checkpoint); ``failures`` audits the
    rest.  ``attempts`` counts live executions per group — resumed groups
    stay at 0, which is what resume tests assert on.
    """

    results: dict[int, Any] = field(default_factory=dict)
    failures: list[FailureRecord] = field(default_factory=list)
    attempts: dict[int, int] = field(default_factory=dict)
    resumed: tuple[int, ...] = ()
    #: ``workers > 1`` was requested but the platform has no ``fork``
    #: start method, so groups ran serially in-process (documented
    #: degrade; a warning is logged and callers surface it on
    #: ``ZatelResult.serial_fallback``).
    serial_fallback: bool = False

    @property
    def succeeded(self) -> bool:
        return not self.failures


class GroupExecutor:
    """Runs ``count`` indexed tasks under an :class:`ExecutionPolicy`."""

    def __init__(self, policy: ExecutionPolicy, fault_plan: Any | None = None) -> None:
        self.policy = policy
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(
        self, task: Callable[[int, int], Any], count: int
    ) -> ExecutionReport:
        """Execute ``task(index, attempt)`` for every ``index < count``.

        Returns an :class:`ExecutionReport`; never raises for individual
        task failures — those become :class:`FailureRecord` entries.
        """
        report = ExecutionReport(attempts={i: 0 for i in range(count)})
        if self.policy.checkpoint_dir is not None:
            Path(self.policy.checkpoint_dir).mkdir(parents=True, exist_ok=True)
            if self.policy.resume:
                self._resume_from_checkpoints(count, report)
        remaining = [i for i in range(count) if i not in report.results]
        if not remaining:
            return report
        if self._use_processes():
            self._run_forked(task, remaining, report)
        else:
            if self.policy.workers > 1:
                # Documented degrade, not a silent one: the parallelism
                # the caller asked for is unavailable here, and results
                # are identical either way (groups are independent), so
                # run serially but say so and record it on the report.
                report.serial_fallback = True
                logger.warning(
                    "workers=%d requested but the 'fork' start method is "
                    "unavailable on this platform; running %d group(s) "
                    "serially in-process (results are unaffected, wall-"
                    "clock parallelism is lost, timeouts are best-effort)",
                    self.policy.workers,
                    len(remaining),
                )
            self._run_serial(task, remaining, report)
        report.failures.sort(key=lambda record: record.index)
        return report

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def _checkpoint_path(self, index: int) -> Path:
        return Path(self.policy.checkpoint_dir) / f"group_{index:04d}.pkl"

    def _store_checkpoint(self, index: int, result: Any) -> None:
        if self.policy.checkpoint_dir is None:
            return
        path = self._checkpoint_path(index)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        with tmp.open("wb") as handle:
            pickle.dump(
                {"index": index, "result": result},
                handle,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        os.replace(tmp, path)
        plan = self.fault_plan
        if plan is not None and plan.corrupts_checkpoint(index):
            # Injected corruption: truncate to half, as an interrupted
            # non-atomic writer would have left it.
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])

    def _load_checkpoint(self, index: int) -> Any | None:
        """A checkpointed result, or ``None`` (missing or corrupt —
        corrupt files are deleted so the group recomputes cleanly)."""
        path = self._checkpoint_path(index)
        if not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
            if not isinstance(payload, dict) or payload.get("index") != index:
                raise pickle.UnpicklingError("checkpoint payload mismatch")
            return payload["result"]
        except _CORRUPT_PICKLE_ERRORS as error:
            logger.warning(
                "%s",
                CacheCorruptionError(
                    f"corrupt checkpoint {path} ({type(error).__name__}: "
                    f"{error}); deleted, group {index} will recompute"
                ),
            )
            path.unlink(missing_ok=True)
            return None

    def _resume_from_checkpoints(self, count: int, report: ExecutionReport) -> None:
        resumed = []
        for index in range(count):
            result = self._load_checkpoint(index)
            if result is not None:
                report.results[index] = result
                resumed.append(index)
        report.resumed = tuple(resumed)

    # ------------------------------------------------------------------
    # serial (in-process) execution
    # ------------------------------------------------------------------

    def _use_processes(self) -> bool:
        return (
            self.policy.workers > 1
            and "fork" in multiprocessing.get_all_start_methods()
        )

    def _run_serial(
        self,
        task: Callable[[int, int], Any],
        indices: list[int],
        report: ExecutionReport,
    ) -> None:
        for index in indices:
            last_error: BaseException | None = None
            for attempt in range(self.policy.retries + 1):
                if attempt > 0:
                    time.sleep(self.policy.backoff_delay(index, attempt))
                report.attempts[index] += 1
                try:
                    if self.fault_plan is not None:
                        self.fault_plan.apply(index, attempt, in_process=True)
                    result = task(index, attempt)
                except Exception as error:  # noqa: BLE001 - isolation boundary
                    last_error = error
                    if isinstance(error, _DETERMINISTIC_ERRORS):
                        break
                    continue
                report.results[index] = result
                self._store_checkpoint(index, result)
                last_error = None
                break
            if last_error is not None:
                report.failures.append(
                    FailureRecord(
                        index=index,
                        error=type(last_error).__name__,
                        message=str(last_error),
                        attempts=report.attempts[index],
                        retryable=not isinstance(
                            last_error, _DETERMINISTIC_ERRORS
                        ),
                    )
                )

    # ------------------------------------------------------------------
    # forked-process execution
    # ------------------------------------------------------------------

    def _run_forked(
        self,
        task: Callable[[int, int], Any],
        indices: list[int],
        report: ExecutionReport,
    ) -> None:
        """Scheduling loop: at most ``workers`` concurrent forked attempts,
        per-attempt deadlines, deterministic-backoff retry queue."""
        ctx = multiprocessing.get_context("fork")
        ready: list[tuple[int, int]] = [(index, 0) for index in indices]
        waiting: list[tuple[float, int, int]] = []  # (not_before, index, attempt)
        running: dict[int, tuple[Any, Any, float | None, int]] = {}

        while ready or waiting or running:
            now = time.monotonic()
            still_waiting = []
            for not_before, index, attempt in waiting:
                if not_before <= now:
                    ready.append((index, attempt))
                else:
                    still_waiting.append((not_before, index, attempt))
            waiting = still_waiting

            while ready and len(running) < self.policy.workers:
                index, attempt = ready.pop(0)
                recv, send = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_worker_main,
                    args=(send, task, index, attempt, self.fault_plan),
                )
                process.start()
                send.close()
                deadline = (
                    now + self.policy.timeout
                    if self.policy.timeout is not None
                    else None
                )
                report.attempts[index] += 1
                running[index] = (process, recv, deadline, attempt)

            if not running:
                if waiting:
                    time.sleep(
                        max(0.0, min(w[0] for w in waiting) - time.monotonic())
                    )
                continue

            time.sleep(0.002)
            now = time.monotonic()
            for index in list(running):
                process, recv, deadline, attempt = running[index]
                outcome = self._poll_worker(index, process, recv, deadline, now)
                if outcome is None:
                    continue
                del running[index]
                recv.close()
                kind, payload = outcome
                if kind == "ok":
                    report.results[index] = payload
                    self._store_checkpoint(index, payload)
                    continue
                error_name, message, retryable = payload
                if retryable and attempt < self.policy.retries:
                    not_before = now + self.policy.backoff_delay(
                        index, attempt + 1
                    )
                    waiting.append((not_before, index, attempt + 1))
                else:
                    report.failures.append(
                        FailureRecord(
                            index=index,
                            error=error_name,
                            message=message,
                            attempts=report.attempts[index],
                            retryable=retryable,
                        )
                    )

    def _poll_worker(
        self,
        index: int,
        process: Any,
        recv: Any,
        deadline: float | None,
        now: float,
    ) -> tuple[str, Any] | None:
        """One worker's state: ``None`` if still running, else an
        ``("ok", result)`` or ``("failed", (error_name, message,
        retryable))`` pair."""
        if recv.poll():
            try:
                message = recv.recv()
            except (EOFError, OSError):
                message = None
            process.join()
            if message is not None and message[0] == "ok":
                return ("ok", message[1])
            if message is not None:
                return ("failed", message[1:])
            return (
                "failed",
                (
                    WorkerCrashError.__name__,
                    f"worker for group {index} closed its pipe without a "
                    f"result (exit code {process.exitcode})",
                    True,
                ),
            )
        if deadline is not None and now > deadline:
            _kill(process)
            return (
                "failed",
                (
                    GroupTimeoutError.__name__,
                    f"group {index} exceeded the {self.policy.timeout:g}s "
                    "per-attempt timeout; worker killed",
                    True,
                ),
            )
        if not process.is_alive():
            process.join()
            if recv.poll():  # result raced the exit — drain it
                return self._poll_worker(index, process, recv, deadline, now)
            return (
                "failed",
                (
                    WorkerCrashError.__name__,
                    f"worker for group {index} died with exit code "
                    f"{process.exitcode} before reporting a result",
                    True,
                ),
            )
        return None


def _kill(process: Any) -> None:
    """Terminate, escalating to SIGKILL if the worker ignores SIGTERM."""
    process.terminate()
    process.join(timeout=1.0)
    if process.is_alive():
        process.kill()
        process.join()


def _worker_main(conn, task, index: int, attempt: int, fault_plan) -> None:
    """Forked worker entry: run one attempt, report through the pipe.

    Exits with ``os._exit`` so the forked copy of the parent (pytest,
    CLI atexit hooks, ...) never runs its teardown twice.
    """
    try:
        if fault_plan is not None:
            fault_plan.apply(index, attempt, in_process=False)
        result = task(index, attempt)
        conn.send(("ok", result))
        conn.close()
    except BaseException as error:  # noqa: BLE001 - process boundary
        try:
            conn.send((
                "error", type(error).__name__, str(error),
                not isinstance(error, _DETERMINISTIC_ERRORS),
            ))
            conn.close()
        except Exception:
            pass
        os._exit(1)
    os._exit(0)
