"""End-to-end smoke test of ``zatel serve``, run by CI's service-smoke job.

Boots the real service as a subprocess (via :mod:`smoke_common`), then
checks the acceptance contract from the outside, over plain HTTP:

1. a ``POST /predict`` for the golden workload (SPRNG, 24x24, spp 1,
   seed 0, mobile GPU) returns metrics **exactly**
   equal to ``tests/data/golden_predict.json`` — the served path and
   the CLI path must be the same computation;
2. repeating the identical request is an observable cache hit: the
   response carries ``"cached": true`` and the telemetry-bus
   ``service.cache_hits`` counter on ``GET /metrics`` increments;
3. a malformed request is refused with 400, and ``GET /healthz`` says ok;
4. the golden predict ran in a job process, whose timeline and latency
   observations reached the server: ``/api/timeline`` has lanes and the
   ``service.predict_seconds`` histogram holds one count;
5. SIGTERM stops the server with exit code 0, and every process it had
   forked (its job processes) is gone: the server reaped them.

Run locally with::

    PYTHONPATH=src python .github/scripts/service_smoke.py
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

from smoke_common import (
    GOLDEN_REQUEST,
    SmokeServer,
    assert_golden_metrics,
    http_get,
    http_post,
)


def child_pids(parent: int) -> set[int]:
    """PIDs whose parent is ``parent``, read from ``/proc/*/stat``."""
    children = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # the process exited while we looked
            continue
        if int(fields[1]) == parent:
            children.add(int(stat.parent.name))
    return children


def main() -> int:
    with tempfile.TemporaryDirectory() as cache_dir, SmokeServer(
        "service-smoke", ["--cache-dir", cache_dir, "--workers", "1"]
    ) as server:
        base = server.base
        status, health = http_get(base, "/healthz")
        assert status == 200 and health["status"] == "ok", (status, health)

        # 1. served metrics are byte-identical to the golden CLI run
        status, first = http_post(base, "/predict", GOLDEN_REQUEST)
        assert status == 200, (status, first)
        assert first["cached"] is False, first
        assert_golden_metrics(first["metrics"])
        assert first["degraded"] is False

        # 4. the job process's timeline and histograms reached the server
        status, timeline = http_get(base, "/api/timeline")
        assert status == 200 and timeline["lane_count"] > 0, (status, timeline)
        _, metrics = http_get(base, "/metrics")
        predict_counts = metrics["histograms"]["service.predict_seconds"]["counts"]
        assert sum(predict_counts) == 1, predict_counts

        _, metrics = http_get(base, "/metrics")
        hits_before = metrics["counters"]["service.cache_hits"]

        # 2. the repeat is an observable cache hit with equal payload
        status, second = http_post(base, "/predict", GOLDEN_REQUEST)
        assert status == 200, (status, second)
        assert second["cached"] is True, second
        assert_golden_metrics(second["metrics"])
        _, metrics = http_get(base, "/metrics")
        hits_after = metrics["counters"]["service.cache_hits"]
        assert hits_after == hits_before + 1, (hits_before, hits_after)

        # 3. malformed requests are refused loudly
        status, error = http_post(
            base, "/predict", {"scene": "SPRNG", "sizzle": 1}
        )
        assert status == 400, (status, error)
        _, metrics = http_get(base, "/metrics")
        assert metrics["counters"]["service.invalid"] >= 1

        # 5. a graceful stop reaps every job process
        forked = child_pids(server.process.pid)
        assert forked, "the server forked no job process"
        server.process.terminate()
        code = server.process.wait(timeout=60)
        assert code == 0, f"zatel serve exited with code {code}"
        left = {pid for pid in forked if os.path.exists(f"/proc/{pid}")}
        assert not left, f"job processes left after the server stopped: {left}"

        print(
            f"service smoke OK: golden metrics served byte-identical, "
            f"cache hits {hits_before} -> {hits_after}, 400 on bad input, "
            f"timeline with {timeline['lane_count']} lanes, "
            f"{len(forked)} job process(es) reaped on SIGTERM"
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
