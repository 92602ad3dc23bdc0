"""Observability-dashboard smoke test, run by CI's dashboard-smoke job.

Boots the real service (via :mod:`smoke_common`) with one worker, drives
the golden SPRNG 24x24 predict through it, and checks the dashboard
contract from the outside, over plain HTTP:

1. ``GET /dashboard`` returns 200 with the expected page marker — the
   stdlib-served HTML actually shipped;
2. after a real predict, which runs in the worker's job process,
   ``GET /api/timeline`` has non-empty lanes whose windows are
   monotonically ordered by start cycle, and the paginated range echo
   is coherent;
3. ``GET /api/metrics`` is the structured view (nested counter groups,
   not a flat dump) and counts the dashboard hits this very smoke made;
4. a malformed time-range query (``start`` >= ``end``) is refused
   with 400.

Run locally with::

    PYTHONPATH=src python .github/scripts/dashboard_smoke.py
"""

from __future__ import annotations

import sys
import tempfile

from smoke_common import (
    GOLDEN_REQUEST,
    SmokeServer,
    assert_golden_metrics,
    http_get,
    http_get_raw,
    http_post,
)

from repro.service.dashboard import DASHBOARD_MARKER  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as cache_dir, SmokeServer(
        "dashboard-smoke",
        ["--cache-dir", cache_dir, "--workers", "1"],
    ) as server:
        base = server.base

        # 1. the dashboard page is served with its marker
        status, page = http_get_raw(base, "/dashboard")
        assert status == 200, status
        assert DASHBOARD_MARKER.encode() in page, (
            f"dashboard page missing marker {DASHBOARD_MARKER!r}"
        )

        # ... and the timeline API 404s while no prediction has run yet
        status, empty = http_get(base, "/api/timeline")
        assert status == 404, (status, empty)

        # 2. a real predict (instrumented by default) populates the
        # timeline with monotonically-ordered windows per lane
        status, served = http_post(base, "/predict", GOLDEN_REQUEST)
        assert status == 200, (status, served)
        assert_golden_metrics(served["metrics"])

        status, timeline = http_get(base, "/api/timeline")
        assert status == 200, (status, timeline)
        lanes = timeline["lanes"]
        assert lanes, "timeline has no lanes after a real predict"
        assert timeline["total_cycles"] > 0, timeline["total_cycles"]
        for lane in lanes:
            assert lane["windows"], f"lane {lane['component']} has no windows"
            starts = [start for start, _ in lane["windows"]]
            assert starts == sorted(starts), (
                f"lane {lane['component']}.{lane['kind']} windows not "
                f"monotonic: {starts}"
            )
            for start, end in lane["windows"]:
                assert 0.0 <= start < end, (start, end)
        assert timeline["range"]["start"] == 0.0, timeline["range"]
        assert timeline["window_count"] == sum(
            len(lane["windows"]) for lane in lanes
        ), timeline

        # 3. /api/metrics is structured and self-observing
        status, metrics = http_get(base, "/api/metrics")
        assert status == 200, (status, metrics)
        assert metrics["mode"] == "service", metrics["mode"]
        service_group = metrics["counters"]["service"]
        assert service_group["dashboard_hits"] >= 1, service_group
        assert service_group["api_hits"] >= 3, service_group
        assert service_group["predicts"] >= 1, service_group

        # 4. malformed time ranges are refused loudly
        status, error = http_get(base, "/api/timeline?start=50&end=10")
        assert status == 400, (status, error)
        assert "error" in error, error
        status, error = http_get(base, "/api/timeline?start=abc")
        assert status == 400, (status, error)

        print(
            "dashboard smoke OK: page served with marker, "
            f"{len(lanes)} timeline lanes over "
            f"{timeline['total_cycles']:.0f} cycles, structured metrics "
            "counting, 400 on bad ranges"
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
