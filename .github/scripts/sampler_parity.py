"""Sampler-parity gate, run by CI's sampler-parity job.

Two contracts of the pluggable sampling engine, checked on the golden
workload (SPRNG 24x24, spp 1, seed 0, Mobile SoC):

1. **Byte identity.** The default ``heatmap`` sampler is the paper's
   pipeline — its prediction must equal every metric pinned in
   ``tests/data/golden_predict.json`` exactly (``==`` on floats, not
   approx).  The refactor moved selection behind the Sampler protocol;
   this is the proof that the default path did not move.

2. **Statistical consistency.** Each replicate sampler (``ranked_set``,
   ``two_phase``) must report a strictly positive cycles variance, and
   its 95% confidence interval must bracket the *golden predicted*
   cycles value.  The golden prediction is the right reference — all
   samplers share the linear-extrapolation model and its documented
   Section IV-D bias, so a sound replicate estimator is an unbiased
   estimate of the *pipeline's* prediction, not of the full simulation
   (``results/sampler_frontier.txt`` tracks the full-sim error
   separately).

Run locally with::

    PYTHONPATH=src python .github/scripts/sampler_parity.py
"""

from __future__ import annotations

import sys

from smoke_common import load_golden

from repro.core.pipeline import Zatel, ZatelConfig  # noqa: E402
from repro.gpu.config import MOBILE_SOC  # noqa: E402
from repro.scene.library import make_scene  # noqa: E402
from repro.tracer.tracer import FunctionalTracer, RenderSettings  # noqa: E402

SCENE = "SPRNG"
REPLICATE_SAMPLERS = ("ranked_set", "two_phase")


def main() -> int:
    golden = load_golden()
    meta = golden["metrics"][SCENE]
    settings = golden["meta"]

    scene = make_scene(SCENE)
    frame = FunctionalTracer(
        scene,
        RenderSettings(
            width=settings["size"],
            height=settings["size"],
            samples_per_pixel=settings["spp"],
            seed=settings["seed"],
        ),
    ).trace_frame()

    # Contract 1: the default sampler reproduces the golden prediction
    # byte-for-byte.
    default = Zatel(MOBILE_SOC).predict(scene, frame)
    for name, pinned in meta.items():
        got = default.metrics[name]
        assert got == pinned, (
            f"default sampler drifted from golden on {name}: "
            f"got {got!r}, pinned {pinned!r}"
        )
    assert not default.variances, "default sampler must be a point prediction"
    print(f"ok: heatmap reproduces golden_predict.json ({len(meta)} metrics)")

    # Contract 2: replicate samplers report genuine uncertainty that is
    # consistent with the pinned prediction.
    golden_cycles = meta["cycles"]
    failures = []
    for sampler in REPLICATE_SAMPLERS:
        config = ZatelConfig(sampler=sampler, replicates=5)
        result = Zatel(MOBILE_SOC, config).predict(scene, frame)
        variance = result.variances.get("cycles", 0.0)
        lo, hi = result.confidence_intervals()["cycles"]
        brackets = lo <= golden_cycles <= hi
        print(
            f"{sampler}: cycles={result.metrics['cycles']:.2f} "
            f"var={variance:.2f} CI=[{lo:.2f}, {hi:.2f}] "
            f"golden={golden_cycles:.2f} brackets={brackets}"
        )
        if variance <= 0.0:
            failures.append(f"{sampler}: cycles variance is not positive")
        if not brackets:
            failures.append(
                f"{sampler}: 95% CI [{lo:.2f}, {hi:.2f}] misses golden "
                f"cycles {golden_cycles:.2f}"
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("ok: replicate sampler CIs bracket the golden prediction")
    return 0


if __name__ == "__main__":
    sys.exit(main())
