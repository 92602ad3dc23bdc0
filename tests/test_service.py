"""Tests for the HTTP prediction service and its building blocks.

The HTTP-level tests boot a real :class:`ZatelService` on an ephemeral
port with an *injected* executor function, so queue/coalescing/shutdown
behaviour is exercised over actual sockets without paying for real
predictions.  One end-to-end test at the bottom runs the genuine
pipeline on a tiny plane and checks the served payload against a local
in-process prediction.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core.executor import ExecutionPolicy
from repro.core.stages.requests import PredictSpec
from repro.core.stages.singleflight import SingleFlight
from repro.core.stages.store import StoreStats
from repro.service.stats import ServiceStats
from repro.errors import SimulationError
from repro.harness.runner import Runner
from repro.harness.service import ServiceRunner
from repro.service import (
    JobQueue,
    QueueClosedError,
    QueueFullError,
    ResultCache,
    ZatelService,
    parse_predict_payload,
)

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _post(base: str, body: dict) -> tuple[int, dict, dict]:
    """POST /predict; returns (status, payload, headers) without raising."""
    request = urllib.request.Request(
        f"{base}/predict", data=json.dumps(body).encode(), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _get(base: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(f"{base}{path}", timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _payload_for(spec) -> dict:
    return {
        "scene": spec.scene,
        "metrics": {"cycles": float(spec.size)},
        "degraded": False,
    }


@pytest.fixture()
def service_factory(tmp_path):
    """Builds services on ephemeral ports; tears them down afterwards."""
    contexts = []

    def build(**kwargs) -> tuple[ZatelService, str]:
        kwargs.setdefault("runner", Runner(cache_dir=tmp_path / "cache"))
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("queue_capacity", 4)
        service = ZatelService(port=0, **kwargs)
        ctx = service.background()
        ctx.__enter__()
        contexts.append(ctx)
        return service, f"http://127.0.0.1:{service.port}"

    yield build
    for ctx in reversed(contexts):
        ctx.__exit__(None, None, None)


# ---------------------------------------------------------------------------
# SingleFlight
# ---------------------------------------------------------------------------


class TestSingleFlight:
    def test_do_runs_leader_once_and_shares_value(self):
        flights = SingleFlight()
        calls = []
        release = threading.Event()

        def compute():
            calls.append(1)
            release.wait(5)
            return 42

        results = []

        def worker():
            results.append(flights.do("k", compute))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        # Wait until the leader is inside compute, then release everyone.
        deadline = time.monotonic() + 5
        while not calls and time.monotonic() < deadline:
            time.sleep(0.01)
        release.set()
        for t in threads:
            t.join(5)
        assert len(calls) == 1
        assert [value for value, _ in results] == [42] * 4
        assert sum(1 for _, coalesced in results if not coalesced) == 1

    def test_do_propagates_leader_error_to_followers(self):
        flights = SingleFlight()

        def boom():
            raise RuntimeError("leader failed")

        with pytest.raises(RuntimeError, match="leader failed"):
            flights.do("k", boom)
        # The key is released afterwards: a retry runs fresh.
        value, coalesced = flights.do("k", lambda: 7)
        assert (value, coalesced) == (7, False)

    def test_join_coalesces_until_finish(self):
        flights = SingleFlight()
        first, created = flights.join("k", lambda: object())
        again, created2 = flights.join("k", lambda: object())
        assert created and not created2
        assert again is first
        flights.finish("k")
        fresh, created3 = flights.join("k", lambda: object())
        assert created3 and fresh is not first

    def test_join_factory_error_inserts_nothing(self):
        flights = SingleFlight()
        with pytest.raises(ValueError):
            flights.join("k", lambda: (_ for _ in ()).throw(ValueError("no")))
        assert flights.get("k") is None
        assert len(flights) == 0


# ---------------------------------------------------------------------------
# protocol validation
# ---------------------------------------------------------------------------


class TestParsePredictPayload:
    def test_minimal_valid(self):
        spec, wait = parse_predict_payload({"scene": "SPRNG"})
        assert spec == PredictSpec(scene="SPRNG")
        assert wait is True

    def test_full_round_trip(self):
        spec, wait = parse_predict_payload(
            {"scene": "BUNNY", "size": 32, "spp": 2, "seed": 5,
             "gpu": "rtx2060", "division": "coarse",
             "distribution": "lintmp", "fraction": 0.5, "adaptive": True,
             "wait": False}
        )
        assert spec.gpu == "rtx2060"
        assert spec.fraction == 0.5
        assert wait is False

    @pytest.mark.parametrize(
        "body",
        [
            None,
            [],
            "scene",
            {},  # missing scene
            {"scene": "SPRNG", "sizzle": 9},  # unknown key
            {"scene": "NOPE"},  # unknown scene
            {"scene": "SPRNG", "size": "big"},  # wrong type
            {"scene": "SPRNG", "size": True},  # bool is not an int
            {"scene": "SPRNG", "size": 9999},  # out of range
            {"scene": "SPRNG", "fraction": 1.5},  # out of range
            {"scene": "SPRNG", "backend": "cuda"},  # retired field
            {"scene": "SPRNG", "wait": 1},  # wait must be bool
        ],
    )
    def test_malformed_bodies_raise(self, body):
        with pytest.raises(ValueError):
            parse_predict_payload(body)


# ---------------------------------------------------------------------------
# JobQueue
# ---------------------------------------------------------------------------


class TestJobQueue:
    def test_submit_next_complete_lifecycle(self):
        queue = JobQueue(capacity=2)
        job, created = queue.submit("a", PredictSpec(scene="SPRNG"))
        assert created and job.status == "queued"
        picked = queue.next(timeout=1)
        assert picked is job and job.status == "running"
        queue.complete(job, result={"ok": True})
        assert job.status == "done" and job.wait(1)
        assert queue.depth == 0

    def test_capacity_counts_queued_plus_running(self):
        queue = JobQueue(capacity=2)
        queue.submit("a", None)
        running = queue.next(timeout=1)
        queue.submit("b", None)  # 1 running + 1 queued = at capacity
        with pytest.raises(QueueFullError) as excinfo:
            queue.submit("c", None)
        assert excinfo.value.retry_after >= 1.0
        queue.complete(running, result={})
        job, created = queue.submit("c", None)  # capacity freed
        assert created

    def test_identical_keys_coalesce_without_consuming_capacity(self):
        queue = JobQueue(capacity=1)
        job, created = queue.submit("same", None)
        again, created2 = queue.submit("same", None)
        assert created and not created2
        assert again is job
        assert queue.depth == 1

    def test_closed_queue_rejects_submissions(self):
        queue = JobQueue(capacity=1)
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.submit("a", None)

    def test_drain_waits_for_inflight(self):
        queue = JobQueue(capacity=2)
        queue.submit("a", None)
        job = queue.next(timeout=1)
        queue.close()

        def finish_later():
            time.sleep(0.1)
            queue.complete(job, result={})

        threading.Thread(target=finish_later).start()
        assert queue.drain(timeout=5) is True

    def test_drain_times_out_when_job_stuck(self):
        queue = JobQueue(capacity=1)
        queue.submit("a", None)
        queue.next(timeout=1)  # running, never completed
        queue.close()
        assert queue.drain(timeout=0.1) is False


# ---------------------------------------------------------------------------
# ServiceStats.fold
# ---------------------------------------------------------------------------


class TestServiceStatsFold:
    def test_fold_adds_only_what_the_job_recorded(self):
        stats = ServiceStats(cache_hits=5, queue_peak=3.0)
        job = ServiceStats(campaign_points=2, queue_peak=1.0)
        job.observe("trace_seconds", 0.004)
        stats.fold(job)
        assert stats.cache_hits == 5
        assert stats.campaign_points == 2
        assert stats.queue_peak == 3.0
        assert sum(stats.trace_seconds) == 1
        assert stats.histograms()["trace_seconds"] == job.histograms()["trace_seconds"]

    def test_concurrent_folds_lose_no_update(self):
        rounds, folders = 2000, 3
        stats = ServiceStats()
        job = ServiceStats(campaign_points=1)
        job.observe("predict_seconds", 0.3)

        def fold_jobs():
            for _ in range(rounds):
                stats.fold(job)

        def count_hits():
            for _ in range(rounds):
                stats.cache_hits += 1

        threads = [threading.Thread(target=fold_jobs) for _ in range(folders)]
        threads.append(threading.Thread(target=count_hits))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert stats.cache_hits == rounds
        assert stats.campaign_points == folders * rounds
        assert sum(stats.predict_seconds) == folders * rounds

    def test_concurrent_child_store_folds_lose_no_update(self, tmp_path):
        rounds, folders = 2000, 3
        service_runner = ServiceRunner(Runner(cache_dir=tmp_path / "cache"))

        def child(kind, spec):
            return {}, ServiceStats(), StoreStats(misses=1, writes=2), []

        def fold_jobs():
            for _ in range(rounds):
                service_runner._in_child(child, "predict", None, None)

        threads = [threading.Thread(target=fold_jobs) for _ in range(folders)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert service_runner.child_store_stats == StoreStats(
            misses=folders * rounds, writes=2 * folders * rounds
        )
        assert service_runner.runner.store.stats == StoreStats()


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_hit_miss_accounting(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        stats = ServiceStats()
        cache = ResultCache(runner.store, stats)
        assert cache.get("fp") is None
        cache.put("fp", {"metrics": {"cycles": 1.0}})
        assert cache.get("fp") == {"metrics": {"cycles": 1.0}}
        assert stats.cache_misses == 1
        assert stats.cache_hits == 1

    def test_degraded_results_are_never_cached(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        cache = ResultCache(runner.store)
        cache.put("fp", {"metrics": {}, "degraded": True})
        assert cache.contains("fp") is False


# ---------------------------------------------------------------------------
# ZatelService over HTTP (injected executor)
# ---------------------------------------------------------------------------


class TestServiceHttp:
    def test_malformed_request_is_400(self, service_factory):
        _, base = service_factory(executor_fn=_payload_for)
        status, payload, _ = _post(base, {"scene": "SPRNG", "sizzle": 9})
        assert status == 400
        assert "sizzle" in payload["error"]
        status, payload, _ = _post(base, {"scene": "SPRNG", "size": True})
        assert status == 400
        # One tracer: the retired backend field is an unknown key.
        status, payload, _ = _post(base, {"scene": "SPRNG", "backend": "packet"})
        assert status == 400
        assert "unknown field(s) 'backend'" in payload["error"]
        # non-JSON body
        request = urllib.request.Request(
            f"{base}/predict", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_paths_and_methods(self, service_factory):
        _, base = service_factory(executor_fn=_payload_for)
        assert _get(base, "/nope")[0] == 404
        assert _get(base, "/jobs/zzz")[0] == 404
        assert _get(base, "/predict")[0] == 405
        assert _get(base, "/healthz")[1]["status"] == "ok"

    def test_backpressure_returns_429_with_retry_after(self, service_factory):
        gate = threading.Event()

        def blocked(spec):
            gate.wait(30)
            return _payload_for(spec)

        service, base = service_factory(
            executor_fn=blocked, workers=1, queue_capacity=1, use_cache=False
        )
        try:
            status, first, _ = _post(
                base, {"scene": "SPRNG", "size": 16, "wait": False}
            )
            assert status == 202
            # Wait for the worker to pick it up; depth stays 1 (running).
            deadline = time.monotonic() + 5
            while service.queue.running == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            status, payload, headers = _post(
                base, {"scene": "SPRNG", "size": 32, "wait": False}
            )
            assert status == 429
            assert "Retry-After" in headers
            assert payload["retry_after"] >= 1.0
            assert service.stats.rejected == 1
        finally:
            gate.set()

    def test_concurrent_identical_requests_share_one_execution(
        self, service_factory
    ):
        executions = []
        gate = threading.Event()

        def slow(spec):
            executions.append(spec)
            gate.wait(30)
            return _payload_for(spec)

        service, base = service_factory(
            executor_fn=slow, workers=2, use_cache=False
        )
        body = {"scene": "SPRNG", "size": 16}
        results = []

        def fire():
            results.append(_post(base, body))

        threads = [threading.Thread(target=fire) for _ in range(3)]
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 5
            while len(executions) == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            # All three requests are in flight against ONE execution.
            time.sleep(0.2)
        finally:
            gate.set()
        for t in threads:
            t.join(10)
        assert len(executions) == 1
        statuses = sorted(status for status, _, _ in results)
        assert statuses == [200, 200, 200]
        assert all(p["metrics"] == {"cycles": 16.0} for _, p, _ in results)
        coalesced = sorted(p["coalesced"] for _, p, _ in results)
        assert coalesced == [False, True, True]
        assert service.stats.coalesced == 2

    def test_cache_hit_and_miss_accounting(self, service_factory):
        service, base = service_factory(executor_fn=_payload_for)
        body = {"scene": "SPRNG", "size": 16}
        status, first, _ = _post(base, body)
        assert (status, first["cached"]) == (200, False)
        status, second, _ = _post(base, body)
        assert (status, second["cached"]) == (200, True)
        assert second["metrics"] == first["metrics"]
        _, metrics = _get(base, "/metrics")
        counters = metrics["counters"]
        assert counters["service.cache_hits"] == 1
        assert counters["service.cache_misses"] == 1
        assert counters["service.predicts"] == 2
        assert counters["service.completed"] == 1
        assert metrics["derived"]["service.cache_hit_rate"] == 0.5

    def test_failed_execution_returns_500_with_error(self, service_factory):
        def broken(spec):
            raise RuntimeError("synthetic failure")

        service, base = service_factory(executor_fn=broken, use_cache=False)
        status, payload, _ = _post(base, {"scene": "SPRNG", "size": 16})
        assert status == 500
        assert "synthetic failure" in payload["error"]
        assert service.stats.failed == 1

    def test_async_submit_and_poll(self, service_factory):
        _, base = service_factory(executor_fn=_payload_for)
        status, ticket, _ = _post(
            base, {"scene": "SPRNG", "size": 16, "wait": False}
        )
        assert status == 202 and ticket["job"]
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            status, job = _get(base, f"/jobs/{ticket['job']}")
            if job["status"] == "done":
                break
            time.sleep(0.05)
        assert job["status"] == "done"
        assert job["result"]["metrics"] == {"cycles": 16.0}

    def test_graceful_shutdown_drains_inflight_jobs(self, tmp_path):
        started = threading.Event()

        def slow(spec):
            started.set()
            time.sleep(0.3)
            return _payload_for(spec)

        service = ZatelService(
            runner=Runner(cache_dir=tmp_path / "cache"), port=0,
            workers=1, queue_capacity=4, executor_fn=slow, use_cache=False,
        )
        thread = threading.Thread(target=service.run, daemon=True)
        thread.start()
        assert service.started.wait(15)
        base = f"http://127.0.0.1:{service.port}"
        status, ticket, _ = _post(
            base, {"scene": "SPRNG", "size": 16, "wait": False}
        )
        assert status == 202
        assert started.wait(5)
        service.shutdown()
        thread.join(30)
        assert not thread.is_alive()
        # The in-flight job finished during drain instead of being dropped.
        job = service.jobs[ticket["job"]]
        assert job.status == "done"
        assert job.result["metrics"] == {"cycles": 16.0}
        assert service.queue.depth == 0

    def test_submissions_after_close_get_503(self, service_factory):
        service, base = service_factory(executor_fn=_payload_for)
        service.queue.close()
        status, payload, _ = _post(base, {"scene": "SPRNG", "size": 16})
        assert status == 503
        assert "shutting down" in payload["error"]


class TestReadiness:
    def test_idle_service_is_ready(self, service_factory):
        _, base = service_factory(executor_fn=_payload_for)
        status, payload = _get(base, "/readyz")
        assert status == 200
        assert payload == {"status": "ready", "reasons": []}

    def test_saturated_queue_is_unready_but_alive(self, service_factory):
        release = threading.Event()

        def blocked(spec):
            release.wait(10)
            return _payload_for(spec)

        service, base = service_factory(
            executor_fn=blocked, queue_capacity=2, use_cache=False
        )
        try:
            for size in (16, 32):
                status, _, _ = _post(
                    base, {"scene": "SPRNG", "size": size, "wait": False}
                )
                assert status == 202
            deadline = time.monotonic() + 5
            while (
                service.queue.depth < service.queue.capacity
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            status, payload = _get(base, "/readyz")
            assert status == 503
            assert payload["status"] == "unavailable"
            assert any(
                reason.startswith("queue_saturated")
                for reason in payload["reasons"]
            )
            # Liveness is a different question: a busy instance must not
            # look restart-worthy to an orchestrator.
            assert _get(base, "/healthz")[1]["status"] == "ok"
        finally:
            release.set()

    def test_closed_queue_reports_shutting_down(self, service_factory):
        service, base = service_factory(executor_fn=_payload_for)
        service.queue.close()
        status, payload = _get(base, "/readyz")
        assert status == 503
        assert any(
            reason.startswith("shutting_down") for reason in payload["reasons"]
        )


class TestShutdownWatchdog:
    def test_drain_deadline_abandons_hung_job(self, tmp_path):
        started = threading.Event()
        release = threading.Event()

        def wedged(spec):
            started.set()
            release.wait(30)
            return _payload_for(spec)

        service = ZatelService(
            runner=Runner(cache_dir=tmp_path / "cache"), port=0,
            workers=1, queue_capacity=4, executor_fn=wedged,
            use_cache=False, drain_timeout=0.3,
        )
        thread = threading.Thread(target=service.run, daemon=True)
        thread.start()
        try:
            assert service.started.wait(15)
            base = f"http://127.0.0.1:{service.port}"
            status, ticket, _ = _post(
                base, {"scene": "SPRNG", "size": 16, "wait": False}
            )
            assert status == 202
            assert started.wait(5)
            # Shutdown with the executor wedged: the drain deadline must
            # abandon the job as failed instead of hanging the process.
            service.shutdown()
            thread.join(30)
            assert not thread.is_alive()
            job = service.jobs[ticket["job"]]
            assert job.status == "failed"
            assert "drain deadline" in job.error
            assert service.stats.abandoned == 1
            assert service.queue.depth == 0
        finally:
            release.set()


# ---------------------------------------------------------------------------
# end to end: the real pipeline through the service
# ---------------------------------------------------------------------------


class TestServiceEndToEnd:
    def test_served_prediction_matches_local_pipeline(self, tmp_path):
        runner = Runner(cache_dir=tmp_path / "cache")
        spec = PredictSpec(scene="SPRNG", size=12)
        local = ServiceRunner(runner).execute(spec)
        service = ZatelService(
            runner=runner, port=0, workers=1, queue_capacity=4
        )
        with service.background():
            base = f"http://127.0.0.1:{service.port}"
            status, served, _ = _post(base, {"scene": "SPRNG", "size": 12})
        assert status == 200
        assert served["metrics"] == local["metrics"]
        assert served["downscale_factor"] == local["downscale_factor"]
        assert served["degraded"] is False
        assert served["serial_fallback"] is False


class TestJobProcesses:
    """Served jobs run in per-worker forked job processes.

    Each test patches :meth:`ServiceRunner.execute_local`, the body a job
    process runs, before the service starts: the fork inherits the patch.
    """

    @staticmethod
    def _patch_body(monkeypatch, body):
        monkeypatch.setattr(
            ServiceRunner, "execute_local", lambda self, spec, stats=None: body(spec)
        )

    @staticmethod
    def _gone(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        return False

    def test_job_runs_in_another_process(self, monkeypatch, service_factory):
        self._patch_body(monkeypatch, lambda spec: {"pid": os.getpid()})
        service, base = service_factory(use_cache=False)
        status, served, _ = _post(base, {"scene": "SPRNG", "size": 16})
        assert status == 200
        assert served["pid"] != os.getpid()
        assert served["pid"] == service._children[0].process.pid

    def test_killed_child_is_worker_crash_and_replaced(
        self, monkeypatch, service_factory
    ):
        def body(spec):
            if spec.size == 13:
                os.kill(os.getpid(), signal.SIGKILL)
            return {"pid": os.getpid()}

        self._patch_body(monkeypatch, body)
        service, base = service_factory(use_cache=False)
        first_pid = service._children[0].process.pid
        status, failed, _ = _post(base, {"scene": "SPRNG", "size": 13})
        assert status == 500
        assert failed["error"].startswith("WorkerCrashError: ")
        assert str(first_pid) in failed["error"]
        assert service.stats.failed == 1

        status, served, _ = _post(base, {"scene": "SPRNG", "size": 16})
        assert status == 200
        assert served["pid"] not in (first_pid, os.getpid())
        assert self._gone(first_pid)

    @pytest.mark.parametrize(
        "error, expected",
        [
            (SimulationError("quorum lost"), "SimulationError: quorum lost"),
            (ValueError("bad knob"), "ValueError: bad knob"),
            (KeyError("gpu"), "KeyError: 'gpu'"),
        ],
    )
    def test_child_exception_keeps_its_type_name(
        self, monkeypatch, service_factory, error, expected
    ):
        def body(spec):
            raise error

        self._patch_body(monkeypatch, body)
        service, base = service_factory(use_cache=False)
        status, failed, _ = _post(base, {"scene": "SPRNG", "size": 16})
        assert status == 500
        status, job = _get(base, f"/jobs/{failed['job']}")
        assert status == 200
        assert job["status"] == "failed"
        assert job["error"] == expected
        # The job process survives a job's exception.
        assert service._children[0].process.is_alive()

    def test_child_memo_stays_bounded_over_distinct_jobs(
        self, monkeypatch, service_factory
    ):
        def body(self, spec, stats=None):
            store = self.runner.store
            before = len(store._memo)
            for i in range(10):
                store.put(f"job{spec.size}-{i}", bytes(64), persist=False)
            return {"memo_before": before}

        monkeypatch.setattr(ServiceRunner, "execute_local", body)
        service, base = service_factory(use_cache=False)
        seen = []
        for size in range(1, 41):
            status, served, _ = _post(base, {"scene": "SPRNG", "size": size})
            assert status == 200
            seen.append(served["memo_before"])
        # Each job adds 10 entries; the job process drops them after each.
        assert seen == [0] * len(seen)

    def test_hung_child_is_killed_at_drain_deadline(self, monkeypatch, tmp_path):
        self._patch_body(monkeypatch, lambda spec: time.sleep(60))
        service = ZatelService(
            runner=Runner(cache_dir=tmp_path / "cache"), port=0,
            workers=2, queue_capacity=4, use_cache=False, drain_timeout=0.5,
        )
        with service.background():
            pids = [child.process.pid for child in service._children]
            base = f"http://127.0.0.1:{service.port}"
            status, ticket, _ = _post(
                base, {"scene": "SPRNG", "size": 16, "wait": False}
            )
            assert status == 202
            deadline = time.monotonic() + 10
            while service.queue.running == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert service.queue.running == 1
        job = service.jobs[ticket["job"]]
        assert job.status == "failed"
        assert "drain deadline" in job.error
        assert service.stats.abandoned == 1
        assert service.stats.failed == 1
        assert len(pids) == 2
        assert all(self._gone(pid) for pid in pids)

    def test_forked_group_workers_serve_the_golden_payload(self, service_factory):
        golden = json.loads(
            (Path(__file__).parent / "data" / "golden_predict.json").read_text()
        )
        service, base = service_factory(policy=ExecutionPolicy(workers=2))
        status, served, _ = _post(
            base,
            {"scene": "SPRNG", "size": 24, "spp": 1, "seed": 0, "gpu": "mobile"},
        )
        assert status == 200, served
        assert served["metrics"] == golden["metrics"]["SPRNG"]
        assert served["serial_fallback"] is False

    def test_job_counters_and_histograms_reach_metrics(self, service_factory):
        service, base = service_factory()
        status, _, _ = _post(base, {"scene": "SPRNG", "size": 10})
        assert status == 200
        status, report = TestCampaignEndpoint._post_campaign(
            base,
            TestCampaignEndpoint._sheet(
                [
                    {
                        "scene": {
                            "sequence": "saturation",
                            "frames": 2,
                            "knobs": {"level": 0.3},
                            "seed": 1,
                            "orbit_degrees": 8.0,
                        }
                    }
                ]
            ),
        )
        assert status == 200 and report["succeeded"] is True

        _, metrics = _get(base, "/metrics")
        counters = metrics["counters"]
        assert counters["service.campaign_points"] == 2
        assert counters["service.completed"] == 2
        histograms = metrics["histograms"]
        assert sum(histograms["service.trace_seconds"]["counts"]) == 1
        assert sum(histograms["service.predict_seconds"]["counts"]) == 1
        assert sum(histograms["service.queue_seconds"]["counts"]) == 2
        assert sum(histograms["service.total_seconds"]["counts"]) == 2

    def test_job_store_traffic_reaches_metrics(self, service_factory):
        # No result cache, so every store count comes from the job process.
        service, base = service_factory(use_cache=False)
        assert service._children
        status, _, _ = _post(base, {"scene": "SPRNG", "size": 10})
        assert status == 200
        _, cold = _get(base, "/metrics")
        assert cold["store"]["writes"] > 0
        assert cold["store"]["misses"] > 0

        status, _, _ = _post(base, {"scene": "SPRNG", "size": 10})
        assert status == 200
        _, warm = _get(base, "/metrics")
        warm_hits = warm["store"]["memory_hits"] + warm["store"]["disk_hits"]
        cold_hits = cold["store"]["memory_hits"] + cold["store"]["disk_hits"]
        assert warm_hits > cold_hits

    def test_faulted_group_degrades_the_served_prediction(
        self, monkeypatch, service_factory
    ):
        import functools

        import repro.harness.service as service_module
        from repro.core.stages.base import StageContext
        from repro.testing import FaultPlan, exception
        from repro.testing.faults import ALWAYS

        # Every served prediction's group 1 fails on every attempt; the
        # job process inherits the patch when the service forks it.
        monkeypatch.setattr(
            service_module,
            "StageContext",
            functools.partial(
                StageContext, fault_plan=FaultPlan([exception(1, attempts=ALWAYS)])
            ),
        )
        service, base = service_factory()
        assert service._children
        request = {"scene": "SPRNG", "size": 12}
        status, served, _ = _post(base, request)
        assert status == 200, served
        assert served["degraded"] is True
        assert served["cached"] is False
        assert [failure["group"] for failure in served["failures"]] == [1]
        assert served["failures"][0]["attempts"] == 3
        assert 0.0 < served["coverage"] < 1.0

        # A degraded result never enters the result cache.
        spec, _ = parse_predict_payload(request)
        assert not service.cache.contains(service.service_runner.fingerprint(spec))
        status, again, _ = _post(base, request)
        assert status == 200
        assert again["cached"] is False and again["degraded"] is True
        assert service.stats.cache_hits == 0

    def test_served_timeline_equals_in_process_events(self, tmp_path):
        from repro.service.dashboard import parse_timeline_query, timeline_payload

        spec = PredictSpec(scene="SPRNG", size=16)
        local = []
        ServiceRunner(
            Runner(cache_dir=tmp_path / "local"),
            timeline_interval=1024,
            timeline_sink=lambda *record: local.append(record),
        ).execute(spec)
        (label, events, cycles, deltas), = local

        service = ZatelService(
            runner=Runner(cache_dir=tmp_path / "served"), port=0, workers=1
        )
        with service.background():
            base = f"http://127.0.0.1:{service.port}"
            status, _, _ = _post(base, {"scene": "SPRNG", "size": 16})
            assert status == 200
            assert service.timeline_trace(None) == (events, cycles, deltas)
            status, served = _get(base, "/api/timeline")
        assert status == 200
        assert service.timeline_traces()[0]["label"] == label
        expected = json.loads(
            json.dumps(timeline_payload(events, cycles, parse_timeline_query(""), deltas))
        )
        for key in ("trace", "traces"):
            served.pop(key)
        assert served == expected


class TestCampaignEndpoint:
    @staticmethod
    def _post_campaign(base: str, body: dict) -> tuple[int, dict]:
        request = urllib.request.Request(
            f"{base}/campaigns", data=json.dumps(body).encode(), method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    @staticmethod
    def _sheet(points, **campaign):
        defaults = {"name": "svc", "size": 10, "gpus": ["mobile"]}
        defaults.update(campaign)
        return {"campaign": defaults, "points": points}

    def test_campaign_runs_and_counters_surface(self, service_factory):
        service, base = service_factory()
        sheet = self._sheet(
            [
                {
                    "scene": {
                        "sequence": "saturation",
                        "frames": 2,
                        "knobs": {"level": 0.3},
                        "seed": 1,
                        "orbit_degrees": 8.0,
                    }
                }
            ]
        )
        status, report = self._post_campaign(base, sheet)
        assert status == 200
        assert report["campaign"] == "svc"
        assert report["succeeded"] is True
        assert len(report["points"]) == 2
        assert all(p["verdict"] == "pass" for p in report["points"])

        _, metrics = _get(base, "/metrics")
        counters = metrics["counters"]
        assert counters["service.campaigns"] == 1
        assert counters["service.campaign_points"] == 2

    def test_invalid_samplesheet_is_400(self, service_factory):
        service, base = service_factory()
        status, body = self._post_campaign(
            base, self._sheet([{"scene": "SPRNG", "gppu": "x"}])
        )
        assert status == 400
        assert "points[0]" in body["error"]

    def test_async_submit_then_poll_campaign(self, service_factory):
        service, base = service_factory()
        sheet = self._sheet([{"scene": "SPRNG", "size": 8}])
        status, body = self._post_campaign(base, {**sheet, "wait": False})
        assert status == 202
        job_id = body["job"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status, job = _get(base, f"/campaigns/{job_id}")
            if job["status"] == "done":
                break
            time.sleep(0.05)
        assert job["status"] == "done"
        assert job["result"]["succeeded"] is True


class TestCliErrorMapping:
    def test_unreachable_remote_is_execution_error_not_traceback(self):
        from repro.cli.main import main

        # Port 9 (discard) refuses connections; the CLI must map the
        # client error to the execution-failure exit code, not crash.
        code = main(
            ["predict", "SPRNG", "--size", "16",
             "--remote", "http://127.0.0.1:9"]
        )
        assert code == 3

    def test_remote_rejects_local_only_flags(self):
        from repro.cli.main import main

        code = main(
            ["predict", "SPRNG", "--size", "16",
             "--remote", "http://127.0.0.1:9", "--compare"]
        )
        assert code == 2
