"""The ``serve`` workload: ``zatel serve`` driven over HTTP by one client.

The server runs as its own process with its defaults (timeline capture
on), a fresh cache directory and ``--port 0``; the port comes from its
``ZATEL_SERVE_READY`` line.  Two client threads, one connection each,
drive it in a closed loop through their seeded plans
(:func:`common.serve_plan`).
"""

from __future__ import annotations

import http.client
import json
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPException
from pathlib import Path

from . import common
from .common import metric

READY = re.compile(r"^ZATEL_SERVE_READY host=(\S+) port=(\d+)\s*$")
#: Boot, request and shutdown limits.  They only bound a broken run; a
#: healthy one never waits on them.
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
#: Nominal seconds of 8 blocks per connection; blocks per run are a
#: multiple of 8 so each connection's fresh specs cover every
#: (scene, size) combination equally.
BLOCKS_8_S = 15.0
CONNECTIONS = 2


class Server:
    """One ``zatel serve`` process (optionally under the span launcher)."""

    def __init__(self, src: Path, cache_dir: Path, log_path: Path, spans_path: Path | None = None):
        serve_args = ["serve", "--port", "0", "--cache-dir", str(cache_dir)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            launcher = Path(__file__).resolve().parent / "serve_launcher.py"
            cmd = [sys.executable, str(launcher), "--spans", str(spans_path), "--", *serve_args]
        self.log_path = log_path
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            env=common.env_with_sources(src),
        )
        self._drain: threading.Thread | None = None
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        # A blocking read of the ready line; the timer only fires if the
        # server hangs before printing it.
        watchdog = threading.Timer(BOOT_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                match = READY.match(line)
                if match:
                    break
            else:
                code = self.proc.wait()
                self._log.close()
                tail = self.log_path.read_text(encoding="utf-8")[-2000:]
                raise RuntimeError(f"zatel serve exited (code {code}) before ready:\n{tail}")
        finally:
            watchdog.cancel()
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()
        return int(match.group(2))

    def request(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, payload, headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            conn.close()

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill only if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=STOP_TIMEOUT_S)
        self._log.close()
        return code


@dataclass
class ServeTally:
    #: Hit round trips per hit-set spec.
    hit_s: dict = field(default_factory=dict)
    #: Round trips of each fresh frame's two misses (mobile + rtx2060).
    pair_s: list[float] = field(default_factory=list)
    #: Per miss: (round trip, the payload's host_seconds).
    misses: list[tuple[float, float]] = field(default_factory=list)
    queue_wait_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    window_s: float = 0.0
    #: ``perf_counter`` at the start of the timed window.  The clock is
    #: system-wide, so it also dates the server's spans.
    window_start: float = 0.0
    counters: dict = field(default_factory=dict)
    warm_payloads: dict = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)


def _spec_key(body: dict) -> str:
    return json.dumps(body, sort_keys=True)


def warm_up(server: Server) -> dict:
    """Ask for the whole hit set once; returns payload metrics per spec."""
    golden = common.load_golden()
    payloads = {}
    for body in common.hit_set():
        status, payload = server.request("POST", "/predict", body)
        if status != 200 or payload.get("cached"):
            raise RuntimeError(f"warm-up request {body} answered {status}")
        _check_payload(payload, body, golden)
        payloads[_spec_key(body)] = payload["metrics"]
    return payloads


def _check_payload(payload: dict, body: dict, golden: dict) -> None:
    if payload.get("degraded") or payload.get("failures"):
        raise AssertionError("degraded served prediction")
    if not common.finite_metrics(payload["metrics"]):
        raise AssertionError("served prediction has a non-finite metric")
    if body.get("gpu") == "mobile" and body.get("size") == common.GOLDEN_SIZE:
        if payload["metrics"] != golden[body["scene"]]:
            raise AssertionError(f"served {body['scene']} differs from the golden metrics")


def drive(server: Server, plans: list[list], tally: ServeTally, job_waits: bool) -> None:
    """Run every connection's plan to the end, in parallel threads."""
    golden = common.load_golden()

    def connection(plan):
        pending_pair = 0.0
        for kind, body in plan:
            queue_wait = None
            try:
                start = time.perf_counter()
                status, payload = server.request("POST", "/predict", body)
                elapsed = time.perf_counter() - start
                if status != 200:
                    raise AssertionError(f"status {status}: {payload.get('error')}")
                if payload.get("cached") != (kind == "hit"):
                    raise AssertionError(f"cached={payload.get('cached')} on a planned {kind}")
                _check_payload(payload, body, golden)
                if kind == "hit" and payload["metrics"] != tally.warm_payloads[_spec_key(body)]:
                    raise AssertionError("hit differs from the warm-up result")
                if kind == "miss" and job_waits:
                    job_status, job = server.request("GET", f"/jobs/{payload['job']}")
                    if job_status != 200:
                        raise AssertionError(f"GET /jobs answered {job_status}")
                    queue_wait = job["queue_seconds"]
            except (AssertionError, KeyError, ValueError, OSError, HTTPException) as error:
                with tally.lock:
                    tally.attempted += 1
                    tally.failures.append(f"{kind} {body}: {type(error).__name__}: {error}")
                continue
            with tally.lock:
                tally.attempted += 1
                if kind == "hit":
                    tally.hit_s.setdefault(_spec_key(body), []).append(elapsed)
                    continue
                tally.misses.append((elapsed, payload["host_seconds"]))
                if body["gpu"] == "mobile":
                    pending_pair = elapsed
                else:
                    tally.pair_s.append(pending_pair + elapsed)
                if queue_wait is not None:
                    tally.queue_wait_s.append(queue_wait)

    threads = [threading.Thread(target=connection, args=(plan,)) for plan in plans]
    start = tally.window_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    tally.window_s = time.perf_counter() - start


def plans_for(seed: int, seconds: float) -> list[list]:
    blocks = 8 * max(1, round(seconds / BLOCKS_8_S))
    return [common.serve_plan(c, blocks, seed) for c in range(CONNECTIONS)]


def check_counters(tally: ServeTally, plans: list[list]) -> None:
    """The service's own counters must match the plan exactly."""
    counters = tally.counters
    hits = sum(1 for plan in plans for kind, _ in plan if kind == "hit")
    misses = sum(1 for plan in plans for kind, _ in plan if kind == "miss")
    misses += len(common.hit_set())
    expected = {
        "service.cache_hits": hits,
        "service.cache_misses": misses,
        "service.coalesced": 0,
        "service.rejected": 0,
        "service.failed": 0,
    }
    for name, want in expected.items():
        if counters.get(name) != want:
            tally.failures.append(f"/metrics {name} = {counters.get(name)}, planned {want}")


def serve_pass(
    src, run_dir: Path, seed: int, seconds: float, spans_path=None
) -> tuple[ServeTally, dict]:
    """Boot a server, warm it, drive the plan, stop it.

    Returns the tally and set-up timings ``{"boot_s", "warm_s"}``.
    """
    plans = plans_for(seed, seconds)
    tally = ServeTally()
    tag = "traced" if spans_path else "plain"
    start = time.perf_counter()
    server = Server(src, run_dir / f"cache-{tag}", run_dir / f"serve-{tag}.log", spans_path)
    try:
        boot = time.perf_counter() - start
        warm_start = time.perf_counter()
        tally.warm_payloads = warm_up(server)
        warm = time.perf_counter() - warm_start
        drive(server, plans, tally, job_waits=spans_path is not None)
        status, payload = server.request("GET", "/metrics")
        if status == 200:
            tally.counters = payload["counters"]
        check_counters(tally, plans)
    finally:
        code = server.stop()
    if code != 0:
        tally.failures.append(f"zatel serve exited with code {code}")
    if tally.failures:
        kept = common.RUNS_DIR / f"serve-failure-{seed}-{tag}.log"
        shutil.copyfile(server.log_path, kept)
        tally.failures.append(f"server log kept at {kept}")
    return tally, {"boot_s": boot, "warm_s": warm}


def boot_only(src, run_dir: Path, index: int) -> float:
    """Seconds from launch to the ready line of a server that is then stopped."""
    start = time.perf_counter()
    server = Server(src, run_dir / f"boot-{index}", run_dir / f"boot-{index}.log")
    elapsed = time.perf_counter() - start
    server.stop()
    return elapsed


def accuracy(warm_payloads: dict) -> tuple[float, float]:
    """Mean MAE and cycles error of the hit set against the reference."""
    from repro.harness.metrics import mae, metric_errors

    reference = common.load_reference()
    maes, cycles = [], []
    for body in common.hit_set():
        predicted = warm_payloads[_spec_key(body)]
        truth = reference[common.pair_key(body["scene"], body["gpu"], body["size"])]
        errors = metric_errors(predicted, truth)
        maes.append(mae(errors))
        cycles.append(errors["cycles"])
    return statistics.fmean(maes), statistics.fmean(cycles)


def hit_count(tally: ServeTally) -> int:
    return sum(len(values) for values in tally.hit_s.values())


def ops_per_s(tally: ServeTally) -> float:
    return (hit_count(tally) + len(tally.misses)) / tally.window_s if tally.window_s else 0.0


def end_to_end(tally: ServeTally, setup_s: float, peak_rss: float) -> dict:
    mae_pct, cycles_pct = accuracy(tally.warm_payloads)
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss, "MB"),
        "ops_per_s": metric(ops_per_s(tally), "1/s"),
        "warm_p50_ms": metric(common.mean_of_medians(tally.hit_s) * 1e3, "ms"),
        "mae_pct": metric(mae_pct, "%"),
        "cycles_err_pct": metric(cycles_pct, "%"),
    }


def detail(tally: ServeTally) -> dict:
    hits = [v for values in tally.hit_s.values() for v in values]
    out = {
        "misses": len(tally.misses),
        "miss_p50_s": statistics.median(m[0] for m in tally.misses) if tally.misses else None,
        "fresh_pair_p50_s": statistics.median(tally.pair_s) if tally.pair_s else None,
        "hit_tail_ms": common.tail_summary(hits, 1e3) if hits else None,
        "window_s": tally.window_s,
    }
    if tally.misses:
        out["service.job_s"] = statistics.median(m[1] for m in tally.misses)
        out["service.overhead_ms"] = statistics.median((m[0] - m[1]) * 1e3 for m in tally.misses)
    if tally.queue_wait_s:
        out["service.queue_wait_s"] = statistics.median(tally.queue_wait_s)
    return out
