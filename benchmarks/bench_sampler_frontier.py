"""Sampler accuracy-vs-cost frontier (pluggable sampling engine).

The sampling engine refactor makes step 5 a design space: the paper's
K-Means heatmap quotas (point predictions), ranked set sampling with
repeated subsampling, and two-phase stratified sampling with Neyman
allocation (both replicate-based, reporting confidence intervals).  This
benchmark sweeps sampler x scene as one deduplicated stage DAG — every
sampler of a scene shares the profile/quantize/partition artifacts — and
reports each cell's cycles error against ground truth next to its
simulation cost, i.e. the frontier a user trades along when picking
``predict --sampler``.

Expected shapes: the default sampler reproduces the plain pipeline
byte-for-byte; the replicate samplers report confidence intervals whose
half-width is finite and positive; each replicate draws the full nominal
budget (splitting it would amplify the Section IV-D extrapolation bias),
so a cell's cost is bounded by roughly R times the default sampler's.
"""

from repro.core import SweepPoint, ZatelConfig
from repro.gpu import MOBILE_SOC
from repro.harness import format_table, metric_errors, save_result

from common import workload_for

SCENES = ("SPRNG", "BUNNY", "BATH")
SAMPLERS = ("heatmap", "ranked_set", "two_phase")
REPLICATES = 5


def test_sampler_frontier(benchmark, runner):
    def experiment():
        grid = [
            (scene_name, sampler)
            for scene_name in SCENES
            for sampler in SAMPLERS
        ]
        points = [
            SweepPoint(
                scene_name,
                MOBILE_SOC,
                config=ZatelConfig(sampler=sampler, replicates=REPLICATES),
            )
            for scene_name, sampler in grid
        ]
        sweep = runner.sweep(points)
        rows = []
        outcomes = {}
        for (scene_name, sampler), point in zip(grid, points):
            result = sweep.value(point)
            full = runner.full_sim(workload_for(scene_name), MOBILE_SOC)
            error = metric_errors(result.metrics, full)["cycles"]
            intervals = result.confidence_intervals()
            if "cycles" in intervals:
                lo, hi = intervals["cycles"]
                ci_text = f"[{lo:.0f}, {hi:.0f}]"
                brackets = lo <= full.metric("cycles") <= hi
            else:
                ci_text, brackets = "-", None
            outcomes[(scene_name, sampler)] = {
                "result": result,
                "error": error,
                "work": result.total_work_units,
                "brackets": brackets,
            }
            rows.append(
                [
                    scene_name,
                    sampler,
                    error,
                    result.total_work_units,
                    ci_text,
                    {True: "yes", False: "no", None: "-"}[brackets],
                ]
            )
        table = format_table(
            ["scene", "sampler", "cycles err %", "work units",
             "cycles 95% CI", "CI brackets truth"],
            rows,
            title=(
                "Sampler accuracy-vs-cost frontier (Mobile SoC, "
                f"{REPLICATES} replicates); planner deduplicated "
                f"{sweep.deduplicated_nodes} of "
                f"{sweep.total_nodes} stages"
            ),
            precision=1,
        )
        return table, outcomes

    report, outcomes = benchmark.pedantic(experiment, rounds=1, iterations=1)
    save_result("sampler_frontier", report)
    print("\n" + report)

    for scene_name in SCENES:
        base = outcomes[(scene_name, "heatmap")]
        # Shape 1: the default sampler is the plain pipeline — point
        # prediction, no variance estimate, no interval.
        assert not base["result"].variances
        assert base["result"].confidence_intervals() == {}
        assert base["result"].sampler["name"] == "heatmap"
        for sampler in ("ranked_set", "two_phase"):
            cell = outcomes[(scene_name, sampler)]
            # Shape 2: replicate samplers report a genuine uncertainty
            # estimate — positive variance, finite interval.
            assert cell["result"].variances["cycles"] > 0.0
            assert cell["brackets"] is not None
            # Shape 3: full-budget replicates — cost scales roughly with
            # R.  The slack covers selection composition: Neyman
            # allocation deliberately concentrates on expensive strata,
            # so per-pixel work can exceed the default sampler's.
            assert base["work"] < cell["work"] < base["work"] * REPLICATES * 2
