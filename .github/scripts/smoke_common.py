"""Shared plumbing for the CI smoke scripts.

Every smoke job boots the real ``zatel serve`` as a subprocess and talks
to it over plain HTTP; this module is the one copy of that plumbing
(the five scripts used to carry near-identical port-pick / boot-loop /
teardown blocks each):

* :class:`SmokeServer` — boot ``zatel serve`` with ``--port 0``, read
  the kernel-chosen port from the ``ZATEL_SERVE_READY`` startup line
  (no free-port race), wait for ``/readyz``, tee all server output to
  ``smoke-logs/<name>.log`` (uploaded as a CI artifact on failure), and
  terminate/kill on exit;
* :func:`http_get` / :func:`http_post` / :func:`http_get_raw` — JSON
  and raw HTTP helpers that surface error bodies instead of raising;
* :func:`load_golden` / :data:`GOLDEN_REQUEST` /
  :func:`assert_golden_metrics` — the golden-file compare the byte
  identity gates share.

Run any smoke locally with ``PYTHONPATH=src python .github/scripts/<x>.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.service.protocol import parse_ready_line  # noqa: E402

GOLDEN = REPO / "tests" / "data" / "golden_predict.json"

#: The golden workload every byte-identity gate runs (matches the
#: ``meta`` block pinned in golden_predict.json; verified at load time).
GOLDEN_REQUEST = {
    "scene": "SPRNG", "size": 24, "spp": 1, "seed": 0, "gpu": "mobile",
}

#: Where SmokeServer tees server output; CI uploads this directory as an
#: artifact when a smoke job fails.
LOG_DIR = REPO / "smoke-logs"


def load_golden() -> dict:
    """The golden prediction file, with its meta cross-checked against
    :data:`GOLDEN_REQUEST` so the two cannot drift apart silently."""
    golden = json.loads(GOLDEN.read_text())
    meta = golden["meta"]
    pinned = (meta["size"], meta["spp"], meta["seed"])
    requested = (
        GOLDEN_REQUEST["size"], GOLDEN_REQUEST["spp"], GOLDEN_REQUEST["seed"],
    )
    assert pinned == requested, (
        f"GOLDEN_REQUEST drifted from golden meta: {meta}"
    )
    return golden


def assert_golden_metrics(served: dict, scene: str = "SPRNG") -> None:
    """Served metrics must equal the pinned golden metrics exactly."""
    expected = load_golden()["metrics"][scene]
    assert served == expected, (
        "served metrics drifted from tests/data/golden_predict.json:\n"
        f"served: {json.dumps(served, sort_keys=True)}\n"
        f"golden: {json.dumps(expected, sort_keys=True)}"
    )


def http_post(
    base: str, path: str, body: dict, timeout: float = 300.0
) -> tuple[int, dict]:
    """POST JSON; returns (status, parsed body) even for error statuses."""
    request = urllib.request.Request(
        f"{base}{path}", data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def http_get(base: str, path: str, timeout: float = 30.0) -> tuple[int, dict]:
    """GET JSON; returns (status, parsed body) even for error statuses."""
    try:
        with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def http_get_raw(base: str, path: str, timeout: float = 30.0) -> tuple[int, bytes]:
    """GET anything; returns (status, raw bytes) even for error statuses."""
    try:
        with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class SmokeServer:
    """Boot/teardown of a ``zatel serve`` subprocess for one smoke run.

    ::

        with SmokeServer("service", ["--workers", "1",
                                     "--cache-dir", cache_dir]) as server:
            status, body = http_post(server.base, "/predict", request)

    The server binds ``--port 0``; the chosen port is read from the
    ``ZATEL_SERVE_READY`` line the service prints once its socket is
    bound — no pre-picked free port, so parallel CI jobs cannot race
    each other for one.  All output is teed to ``smoke-logs/<name>.log``
    for the failure artifact.  Entering the context blocks until
    ``/readyz`` answers 200, so callers never see a half-started
    service.
    """

    def __init__(
        self,
        name: str,
        serve_args: list[str] | None = None,
        ready_timeout: float = 90.0,
    ) -> None:
        self.name = name
        self.serve_args = list(serve_args or [])
        self.ready_timeout = ready_timeout
        self.base = ""
        self.port: int | None = None
        self.process: subprocess.Popen | None = None
        self._log_handle = None
        self._reader: threading.Thread | None = None
        self._ready = threading.Event()
        self.log_path = LOG_DIR / f"{name}.log"

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "SmokeServer":
        LOG_DIR.mkdir(exist_ok=True)
        self._log_handle = self.log_path.open("w")
        env = dict(os.environ)
        src = str(REPO / "src")
        existing = env.get("PYTHONPATH", "")
        if src not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                f"{src}{os.pathsep}{existing}" if existing else src
            )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             *self.serve_args],
            cwd=REPO, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, bufsize=1,
        )
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            self._await_ready()
        except BaseException:
            self._teardown()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._teardown()

    def _pump(self) -> None:
        """Reader thread: tee server output to the log, spot the ready line."""
        assert self.process is not None and self.process.stdout is not None
        for line in self.process.stdout:
            self._log_handle.write(line)
            self._log_handle.flush()
            if not self._ready.is_set():
                parsed = parse_ready_line(line)
                if parsed is not None:
                    host, self.port = parsed
                    self.base = f"http://{host}:{self.port}"
                    self._ready.set()

    def _await_ready(self) -> None:
        deadline = time.monotonic() + self.ready_timeout
        while not self._ready.wait(timeout=0.2):
            if self.process.poll() is not None:
                raise SystemExit(
                    f"serve process died during startup (exit "
                    f"{self.process.returncode}); see {self.log_path}"
                )
            if time.monotonic() > deadline:
                raise SystemExit(
                    f"no ZATEL_SERVE_READY line within "
                    f"{self.ready_timeout:g}s; see {self.log_path}"
                )
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise SystemExit(
                    f"serve process died after binding; see {self.log_path}"
                )
            try:
                status, _ = http_get(self.base, "/readyz", timeout=5.0)
                if status == 200:
                    return
            except (urllib.error.URLError, ConnectionError, TimeoutError):
                pass
            time.sleep(0.2)
        raise SystemExit(
            f"service on {self.base} never became ready within "
            f"{self.ready_timeout:g}s; see {self.log_path}"
        )

    def _teardown(self) -> None:
        if self.process is not None:
            self.process.terminate()
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        if self._reader is not None:
            self._reader.join(timeout=10)
        if self._log_handle is not None:
            self._log_handle.close()
