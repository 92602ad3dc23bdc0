"""End-to-end smoke test of ``POST /campaigns``, run by CI's campaign-smoke job.

Boots the real service as a subprocess (via :mod:`smoke_common`) and
drives a small campaign — a 2-frame procedural saturation sequence —
through it over plain HTTP, checking the campaign-engine acceptance
contract from the outside:

1. the campaign completes and the report carries one verdict per frame;
2. a deliberately untrippable-by-this-sampler QC gate
   (``max_ci_half_width`` on a point-estimate run) degrades the frames
   instead of failing the campaign — the report says ``degraded`` with
   the violation spelled out, and ``succeeded`` stays true;
3. the frames ran in order, one wave each, and no point carries a
   ``sequence_cache`` block; ``GET /metrics`` counts the campaign and
   both of its points;
4. the server runs campaigns with ``--exec-workers 2``, so each point
   resolves in a forked task process, and the report still counts the
   stages those processes ran;
5. an invalid samplesheet is refused with 400 naming the bad row.

Run locally with::

    PYTHONPATH=src python .github/scripts/campaign_smoke.py
"""

from __future__ import annotations

import sys
import tempfile

from smoke_common import SmokeServer, http_get, http_post

SAMPLESHEET = {
    "campaign": {
        "name": "ci-smoke",
        "size": 16,
        "spp": 1,
        "seed": 0,
        "gpus": ["mobile"],
    },
    "points": [
        {
            "scene": {
                "sequence": "saturation",
                "frames": 2,
                "knobs": {"level": 0.4},
                "seed": 2,
                "orbit_degrees": 10.0,
            },
            # Tripped on purpose: the default sampler returns point
            # estimates with no confidence intervals, so any CI-width
            # demand is unsatisfiable and must degrade the point.
            "qc": {"max_ci_half_width": 0.05},
        }
    ],
}

BAD_SHEET = {
    "campaign": {"name": "bad", "size": 16},
    "points": [{"scene": "SPRNG", "gppu": "mobile"}],
}


def main() -> int:
    with tempfile.TemporaryDirectory() as cache_dir, SmokeServer(
        "campaign-smoke",
        ["--cache-dir", cache_dir, "--workers", "1", "--exec-workers", "2"],
    ) as server:
        base = server.base

        # 1. + 2. the sequence campaign completes, degraded-not-failed
        status, report = http_post(base, "/campaigns", SAMPLESHEET)
        assert status == 200, (status, report)
        assert report["campaign"] == "ci-smoke", report
        points = report["points"]
        assert len(points) == 2, points
        assert all(p["verdict"] == "degraded" for p in points), points
        assert any(
            "confidence" in v
            for p in points
            for v in p.get("violations", [])
        ), points
        assert report["succeeded"] is True, report

        # 3. the frames ran as two frame-ordered waves, and the
        # campaign counters reached /metrics
        assert report["waves"] == 2, report
        assert not any("sequence_cache" in p for p in points), points
        _, metrics = http_get(base, "/metrics")
        counters = metrics["counters"]
        assert counters.get("service.campaigns") == 1, counters
        assert counters.get("service.campaign_points") == 2, counters

        # 4. stage counters made in forked task processes reach the report
        executions = report["stages"]["executions"]
        assert executions.get("simulate_groups", 0) >= 1, report["stages"]

        # 5. invalid samplesheets are refused loudly, naming the row
        status, error = http_post(base, "/campaigns", BAD_SHEET)
        assert status == 400, (status, error)
        assert "points[0]" in error["error"], error

        print(
            "campaign smoke OK: 2-frame sequence served in 2 waves, QC "
            "gate degraded both frames as designed, forked stage counters "
            "reported, 400 on bad samplesheet"
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
