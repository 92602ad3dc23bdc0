"""Unit tests for the fault-tolerant group execution engine.

All faults are injected deterministically (repro.testing.faults); no test
here depends on real flakiness, scheduling, or wall-clock timing beyond
generous kill deadlines.
"""

import pickle
import threading

import pytest

from repro.core.executor import (
    ExecutionPolicy,
    GroupExecutor,
    default_quorum,
)
from repro.errors import GroupTimeoutError, WorkerCrashError
from repro.testing import FaultPlan, corrupt_checkpoint, crash, exception, hang
from repro.testing.faults import ALWAYS

#: Retry delays collapsed to zero so tests never sleep.
FAST = {"backoff_base": 0.0, "backoff_cap": 0.0}


def square(index, attempt):  # noqa: ARG001 - executor task signature
    return index * index


def _raises_on_one(error):
    """A task that raises ``error`` for group 1 and squares the others."""

    def task(index, attempt):  # noqa: ARG001 - executor task signature
        if index == 1:
            raise error
        return index * index

    return task


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(workers=0)
        with pytest.raises(ValueError):
            ExecutionPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            ExecutionPolicy(retries=-1)
        with pytest.raises(ValueError):
            ExecutionPolicy(quorum=0)

    def test_backoff_is_deterministic_and_bounded(self):
        a = ExecutionPolicy(seed=7, backoff_base=0.1, backoff_cap=1.5)
        b = ExecutionPolicy(seed=7, backoff_base=0.1, backoff_cap=1.5)
        delays = [a.backoff_delay(i, n) for i in range(4) for n in range(1, 5)]
        assert delays == [
            b.backoff_delay(i, n) for i in range(4) for n in range(1, 5)
        ]
        assert all(0.0 <= d <= 1.5 for d in delays)
        # Different seeds jitter differently.
        c = ExecutionPolicy(seed=8, backoff_base=0.1, backoff_cap=1.5)
        assert delays != [
            c.backoff_delay(i, n) for i in range(4) for n in range(1, 5)
        ]

    def test_default_quorum_is_majority(self):
        assert default_quorum(4) == 2
        assert default_quorum(5) == 3
        assert default_quorum(1) == 1


class TestSerialExecution:
    def test_all_tasks_run(self):
        report = GroupExecutor(ExecutionPolicy()).run(square, 5)
        assert report.results == {i: i * i for i in range(5)}
        assert report.failures == []
        assert report.attempts == {i: 1 for i in range(5)}

    def test_transient_exception_is_retried(self):
        plan = FaultPlan([exception(2, attempts=1)])
        policy = ExecutionPolicy(retries=2, **FAST)
        report = GroupExecutor(policy, fault_plan=plan).run(square, 4)
        assert report.results == {i: i * i for i in range(4)}
        assert report.attempts[2] == 2
        assert report.attempts[0] == 1

    def test_exhausted_retries_become_failure_record(self):
        plan = FaultPlan([exception(1, attempts=ALWAYS)])
        policy = ExecutionPolicy(retries=2, **FAST)
        report = GroupExecutor(policy, fault_plan=plan).run(square, 3)
        assert set(report.results) == {0, 2}
        (record,) = report.failures
        assert record.index == 1
        assert record.error == "SimulationError"
        assert record.attempts == 3  # first try + 2 retries
        assert "injected" in record.message

    @pytest.mark.parametrize(
        "error", [ValueError("empty group"), KeyError("gpu"), TypeError("bad")]
    )
    def test_deterministic_error_is_not_retried(self, error):
        policy = ExecutionPolicy(retries=2, **FAST)
        report = GroupExecutor(policy).run(_raises_on_one(error), 3)
        assert report.results == {0: 0, 2: 4}
        (record,) = report.failures
        assert record.error == type(error).__name__
        assert record.attempts == 1
        assert record.retryable is False
        assert "(not retried)" in record.describe()

    def test_crash_fault_degrades_to_exception_in_process(self):
        # A real os._exit in serial mode would kill the test runner; the
        # plan converts it to an exception so serial runs stay testable.
        plan = FaultPlan([crash(0, attempts=ALWAYS)])
        policy = ExecutionPolicy(retries=0, **FAST)
        report = GroupExecutor(policy, fault_plan=plan).run(square, 2)
        assert report.failures[0].error == "SimulationError"
        assert report.results == {1: 1}


class TestForkedExecution:
    def test_matches_serial_results(self):
        serial = GroupExecutor(ExecutionPolicy()).run(square, 6)
        forked = GroupExecutor(ExecutionPolicy(workers=3)).run(square, 6)
        assert forked.results == serial.results
        assert forked.failures == []

    def test_crashed_worker_fails_only_its_task(self):
        plan = FaultPlan([crash(1, attempts=ALWAYS)])
        policy = ExecutionPolicy(workers=2, retries=1, **FAST)
        report = GroupExecutor(policy, fault_plan=plan).run(square, 4)
        assert set(report.results) == {0, 2, 3}
        (record,) = report.failures
        assert record.error == WorkerCrashError.__name__
        assert record.attempts == 2

    def test_crash_then_retry_succeeds(self):
        plan = FaultPlan([crash(0, attempts=1)])
        policy = ExecutionPolicy(workers=2, retries=1, **FAST)
        report = GroupExecutor(policy, fault_plan=plan).run(square, 3)
        assert report.results == {0: 0, 1: 1, 2: 4}
        assert report.attempts[0] == 2
        assert report.failures == []

    def test_hung_worker_is_killed_and_reported(self):
        plan = FaultPlan([hang(2, attempts=ALWAYS)])
        policy = ExecutionPolicy(workers=2, retries=0, timeout=0.4, **FAST)
        report = GroupExecutor(policy, fault_plan=plan).run(square, 3)
        assert set(report.results) == {0, 1}
        (record,) = report.failures
        assert record.error == GroupTimeoutError.__name__
        assert "timeout" in record.message

    def test_worker_exception_reports_original_type(self):
        plan = FaultPlan([exception(0, attempts=ALWAYS)])
        policy = ExecutionPolicy(workers=2, retries=0, **FAST)
        report = GroupExecutor(policy, fault_plan=plan).run(square, 2)
        assert report.failures[0].error == "SimulationError"

    def test_unpicklable_result_is_a_failure_record(self):
        # The worker's result cannot cross the pipe; the send raises in
        # the child, which reports it like any other exception.
        def lock_for_one(index, attempt):  # noqa: ARG001 - task signature
            return threading.Lock() if index == 1 else index * index

        policy = ExecutionPolicy(workers=2, retries=1, **FAST)
        report = GroupExecutor(policy).run(lock_for_one, 3)
        assert report.results == {0: 0, 2: 4}
        (record,) = report.failures
        assert record.index == 1
        assert record.error == "TypeError"
        # A TypeError cannot change on a second attempt: it is not retried.
        assert record.attempts == 1
        assert record.retryable is False

    def test_deterministic_error_is_not_retried(self):
        policy = ExecutionPolicy(workers=2, retries=2, **FAST)
        report = GroupExecutor(policy).run(_raises_on_one(ValueError("no")), 3)
        assert report.results == {0: 0, 2: 4}
        (record,) = report.failures
        assert (record.error, record.attempts, record.retryable) == (
            "ValueError", 1, False,
        )

    def test_injected_fault_is_still_retried(self):
        plan = FaultPlan([exception(1, attempts=ALWAYS)])
        policy = ExecutionPolicy(workers=2, retries=2, **FAST)
        report = GroupExecutor(policy, fault_plan=plan).run(square, 3)
        (record,) = report.failures
        assert (record.error, record.attempts, record.retryable) == (
            "SimulationError", 3, True,
        )


class TestCheckpointing:
    def test_checkpoints_written_per_group(self, tmp_path):
        policy = ExecutionPolicy(checkpoint_dir=tmp_path)
        GroupExecutor(policy).run(square, 3)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["group_0000.pkl", "group_0001.pkl", "group_0002.pkl"]

    def test_resume_skips_completed_groups(self, tmp_path):
        policy = ExecutionPolicy(checkpoint_dir=tmp_path)
        GroupExecutor(policy).run(square, 4)

        def exploding(index, attempt):
            raise AssertionError("resumed run must not re-execute tasks")

        resumed = GroupExecutor(
            ExecutionPolicy(checkpoint_dir=tmp_path, resume=True)
        ).run(exploding, 4)
        assert resumed.results == {i: i * i for i in range(4)}
        assert resumed.resumed == (0, 1, 2, 3)
        assert all(n == 0 for n in resumed.attempts.values())

    def test_resume_completes_only_missing_groups(self, tmp_path):
        # Interrupted run: group 2 failed permanently, others checkpointed.
        plan = FaultPlan([exception(2, attempts=ALWAYS)])
        first = GroupExecutor(
            ExecutionPolicy(checkpoint_dir=tmp_path, retries=0, **FAST),
            fault_plan=plan,
        ).run(square, 4)
        assert set(first.results) == {0, 1, 3}

        calls = []

        def counting(index, attempt):
            calls.append(index)
            return square(index, attempt)

        resumed = GroupExecutor(
            ExecutionPolicy(checkpoint_dir=tmp_path, resume=True)
        ).run(counting, 4)
        assert calls == [2]
        assert resumed.results == {i: i * i for i in range(4)}

    def test_corrupt_checkpoint_is_deleted_and_recomputed(self, tmp_path):
        plan = FaultPlan([corrupt_checkpoint(1)])
        GroupExecutor(
            ExecutionPolicy(checkpoint_dir=tmp_path), fault_plan=plan
        ).run(square, 3)
        # The injected truncation leaves group 1 unreadable on disk.
        with pytest.raises(Exception):
            with (tmp_path / "group_0001.pkl").open("rb") as handle:
                pickle.load(handle)

        calls = []

        def counting(index, attempt):
            calls.append(index)
            return square(index, attempt)

        resumed = GroupExecutor(
            ExecutionPolicy(checkpoint_dir=tmp_path, resume=True)
        ).run(counting, 3)
        assert calls == [1]
        assert resumed.results == {0: 0, 1: 1, 2: 4}
        # The recompute healed the checkpoint atomically.
        with (tmp_path / "group_0001.pkl").open("rb") as handle:
            assert pickle.load(handle)["result"] == 1

    def test_checkpoint_ignores_wrong_index_payload(self, tmp_path):
        path = tmp_path / "group_0000.pkl"
        with path.open("wb") as handle:
            pickle.dump({"index": 9, "result": 81}, handle)
        report = GroupExecutor(
            ExecutionPolicy(checkpoint_dir=tmp_path, resume=True)
        ).run(square, 1)
        assert report.results == {0: 0}

    def test_checkpoints_work_under_forked_execution(self, tmp_path):
        policy = ExecutionPolicy(workers=2, checkpoint_dir=tmp_path)
        GroupExecutor(policy).run(square, 4)
        resumed = GroupExecutor(
            ExecutionPolicy(checkpoint_dir=tmp_path, resume=True)
        ).run(square, 4)
        assert resumed.resumed == (0, 1, 2, 3)


class TestSerialFallback:
    """workers > 1 on a platform without ``fork`` degrades loudly."""

    @pytest.fixture()
    def no_fork(self, monkeypatch):
        import repro.core.executor as executor_module

        monkeypatch.setattr(
            executor_module.multiprocessing,
            "get_all_start_methods",
            lambda: ["spawn"],
        )

    def test_fallback_is_recorded_and_warned(self, no_fork, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.core.executor"):
            report = GroupExecutor(ExecutionPolicy(workers=3)).run(square, 4)
        assert report.serial_fallback is True
        # The degrade changes scheduling, never results.
        assert report.results == {i: i * i for i in range(4)}
        assert any(
            "workers=3" in record.message and "fork" in record.message
            for record in caplog.records
        )

    def test_serial_request_does_not_flag_fallback(self, no_fork, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.core.executor"):
            report = GroupExecutor(ExecutionPolicy(workers=1)).run(square, 3)
        assert report.serial_fallback is False
        assert not caplog.records

    def test_forked_execution_does_not_flag_fallback(self):
        report = GroupExecutor(ExecutionPolicy(workers=2)).run(square, 4)
        assert report.serial_fallback is False

    def test_fallback_surfaces_on_zatel_result(
        self, no_fork, small_scene, small_frame
    ):
        from repro.core import Zatel
        from repro.gpu import MOBILE_SOC

        result = Zatel(MOBILE_SOC).predict(small_scene, small_frame, workers=2)
        assert result.serial_fallback is True
        # And the same prediction run serially reports no fallback.
        serial = Zatel(MOBILE_SOC).predict(small_scene, small_frame)
        assert serial.serial_fallback is False
        assert serial.metrics == result.metrics
