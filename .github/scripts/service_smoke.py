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
3. a malformed request is refused with 400, and ``GET /healthz`` says ok.

Run locally with::

    PYTHONPATH=src python .github/scripts/service_smoke.py
"""

from __future__ import annotations

import sys
import tempfile

from smoke_common import (
    GOLDEN_REQUEST,
    SmokeServer,
    assert_golden_metrics,
    http_get,
    http_post,
)


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

        print(
            f"service smoke OK: golden metrics served byte-identical, "
            f"cache hits {hits_before} -> {hits_after}, 400 on bad input"
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
