"""Concrete stages: the seven steps of Fig. 3 as composable graph nodes.

Each stage wraps one existing methodology function without changing its
behaviour — for a fixed seed, a prediction assembled from these stages
is bit-identical to the pre-stage-graph monolith (pinned by the golden
tests).  What the decomposition adds is *identity*: every intermediate
artifact gets a content address, so sweeps reuse whatever upstream work
their points share.

==================  ====================================================
stage               computes
==================  ====================================================
``ProfileStage``    execution-time heatmap from the frame trace (step 1)
``QuantizeStage``   K-Means color quantization of the heatmap (step 2)
``DownscaleStage``  GPU config divided by K (step 3)
``PartitionStage``  K image-plane groups (step 4)
``SelectStage``     per-group traced fraction, equation (1) (step 5)
``SimulateGroup-    per-group downscaled simulation + extrapolation
Stage``             through the fault-tolerant executor (steps 5-6)
``CombineStage``    quorum check + cross-group combination into a
                    :class:`~repro.core.pipeline.ZatelResult` (step 7),
                    persisted so a warm predict reads only it
``SamplingSimulate- the sampling-only baseline's single full-GPU
Stage``             sampled simulation (Section IV-D)
==================  ====================================================
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ...errors import DegradedResultError
from ...gpu.frontend import compile_kernel
from ...gpu.simulator import CycleSimulator
from ..combine import (
    combine_degraded_metrics,
    combine_degraded_variances,
    combine_group_metrics,
    combine_group_variances,
)
from ..downscale import downscale_gpu
from ..executor import GroupExecutor, default_quorum
from ..extrapolate import linear_extrapolate
from ..heatmap import Heatmap
from ..partition import partition_plane
from ..quantize import quantize_heatmap
from ..selection import compute_fraction, select_pixels
from .base import Stage, StageContext

__all__ = [
    "ProfileStage",
    "QuantizeStage",
    "DownscaleStage",
    "PartitionStage",
    "SelectStage",
    "SimulateGroupStage",
    "CombineStage",
    "SamplingSimulateStage",
]


class ProfileStage(Stage):
    """Step 1: frame trace -> execution-time heatmap."""

    name = "profile"
    # v2: frame traces may now come from the packet (wavefront) tracing
    # backend.  Traces are byte-identical across backends, but the bump
    # keeps artifacts produced before the equivalence suite existed from
    # being served to it.
    code_version = "2"
    cacheable = True

    def __init__(self, percentile: float = 99.5, warp_width: int = 32) -> None:
        self.percentile = percentile
        self.warp_width = warp_width

    def params(self) -> Any:
        return (self.percentile, self.warp_width)

    def run(self, ctx: StageContext, frame) -> Heatmap:  # noqa: ARG002
        return Heatmap.from_frame(
            frame, percentile=self.percentile, warp_width=self.warp_width
        )


class QuantizeStage(Stage):
    """Step 2: heatmap -> K-Means quantized heatmap."""

    name = "quantize"
    code_version = "1"
    cacheable = True

    def __init__(self, colors: int = 8, seed: int = 0) -> None:
        self.colors = colors
        self.seed = seed

    def params(self) -> Any:
        return (self.colors, self.seed)

    def run(self, ctx: StageContext, heatmap):  # noqa: ARG002
        return quantize_heatmap(heatmap, self.colors, seed=self.seed)


class DownscaleStage(Stage):
    """Step 3: target GPU -> (downscaled GPU, factor K)."""

    name = "downscale"
    code_version = "1"

    def __init__(self, factor: int | None = None) -> None:
        self.factor = factor

    def params(self) -> Any:
        return (self.factor,)

    def run(self, ctx: StageContext, gpu):  # noqa: ARG002
        return downscale_gpu(gpu, self.factor)


class PartitionStage(Stage):
    """Step 4: image plane -> K pixel groups (fine or coarse)."""

    name = "partition"
    code_version = "1"

    def __init__(
        self, division: str = "fine", block_width: int = 32, block_height: int = 2
    ) -> None:
        self.division = division
        self.block_width = block_width
        self.block_height = block_height

    def params(self) -> Any:
        return (self.division, self.block_width, self.block_height)

    def run(self, ctx: StageContext, frame, scaled):  # noqa: ARG002
        _, k = scaled
        return partition_plane(
            frame.width,
            frame.height,
            k,
            method=self.division,
            chunk_width=self.block_width,
            chunk_height=self.block_height,
        )


class SelectStage(Stage):
    """Step 5 (planning half): per-group traced fraction via equation (1).

    The fractions it emits are sampler-independent (equation (1) only
    needs the quantized heatmap), but the plan's *identity* is not: the
    simulate stage consumes these fractions through a specific sampler,
    so the sampler's name and parameters are part of the fingerprint —
    two sweeps over different samplers never alias select artifacts.
    """

    name = "select"
    # v2: fingerprint carries the sampler identity (pluggable sampling
    # engine refactor); emitted fractions are unchanged.
    code_version = "2"

    def __init__(
        self,
        min_fraction: float,
        max_fraction: float,
        fraction_override: float | None = None,
        sampler_identity: Any = None,
    ) -> None:
        self.min_fraction = min_fraction
        self.max_fraction = max_fraction
        self.fraction_override = fraction_override
        self.sampler_identity = sampler_identity

    def params(self) -> Any:
        return (
            self.min_fraction,
            self.max_fraction,
            self.fraction_override,
            self.sampler_identity,
        )

    def run(self, ctx: StageContext, quantized, groups) -> list[float]:  # noqa: ARG002
        if self.fraction_override is not None:
            return [self.fraction_override for _ in groups]
        return [
            compute_fraction(
                quantized, pixels, self.min_fraction, self.max_fraction
            )
            for pixels in groups
        ]


class SimulateGroupStage(Stage):
    """Steps 5-6: simulate every group through the fault-tolerant engine.

    The per-group prediction logic stays on the predictor object (so
    :class:`~repro.core.adaptive.AdaptiveZatel` keeps overriding
    ``_predict_group``); this stage owns scheduling, retries and failure
    auditing via :class:`~repro.core.executor.GroupExecutor`.  Its
    fingerprint includes the predictor's methodology parameters — but
    not the execution policy, which changes how groups run, never what
    they compute.
    """

    name = "simulate_groups"
    # v2: group stats now carry tracing-backend provenance.
    # v3: stats carry a telemetry field (interval snapshots + timelines).
    # v4: predictions carry replicate counts + per-metric variances
    #     (pluggable sampling engine refactor).
    # v5: simulators were backend-selectable; stats carried the backend.
    # v6: one cycle simulator; stats no longer carry a backend field.
    # v7: one tracer; stats no longer carry a tracing-backend field.
    code_version = "7"
    cacheable = True

    def __init__(self, predictor) -> None:
        self.predictor = predictor

    def params(self) -> Any:
        return self.predictor._simulate_params()

    def should_cache(self, result: Any) -> bool:
        # A run with permanent group failures is execution noise, not
        # content — never let it shadow a clean artifact.
        _, failures = result
        return not failures

    def run(self, ctx: StageContext, frame, quantized, groups, scaled, fractions, scene):
        scaled_gpu, _ = scaled
        simulator = CycleSimulator(scaled_gpu, scene.addresses)
        predictor = self.predictor

        def task(index: int, attempt: int):  # noqa: ARG001
            # Attempts are idempotent: group simulation is a pure function
            # of (group, frame, config), so retries reproduce bit-identical
            # results.
            return predictor._predict_group(
                index,
                groups[index],
                frame,
                quantized,
                simulator,
                scene,
                fraction=fractions[index],
            )

        executor = GroupExecutor(
            predictor._resolve_policy(ctx.policy), fault_plan=ctx.fault_plan
        )
        report = executor.run(task, len(groups))
        if report.serial_fallback:
            # Execution observation, not content: never cached with the
            # artifact, surfaced by the driver on the final result.
            ctx.execution_notes["serial_fallback"] = True
        predictions = [report.results[i] for i in sorted(report.results)]
        return predictions, report.failures


class CombineStage(Stage):
    """Step 7: quorum check, degraded renormalization, final combination.

    Produces the :class:`~repro.core.pipeline.ZatelResult`, with the
    execution fields ``host_seconds`` and ``serial_fallback`` left at
    their defaults.  The result is the graph's sink and is persisted, so
    a warm predict reads this one artifact and runs no stage; drivers
    fill the execution fields in on a copy, never on the stored object.
    A degraded result is kept in memory only (:meth:`should_cache`).
    """

    name = "combine"
    # Bump whenever the ZatelResult / GroupPrediction layout changes: the
    # result is persisted, so a stale pickle must never be read back.
    # v2: combination goes through the telemetry metric registry's
    # semantics-aware aggregator (arithmetic unchanged; bumped so cached
    # artifacts never alias across the refactor).
    # v3: results carry combined variances + sampler provenance
    #     (pluggable sampling engine refactor).
    # v4: results carried simulator-backend provenance.
    # v5: one cycle simulator; results no longer carry a backend field.
    # v6: results are persisted (cacheable), degraded ones excepted.
    # v7: one tracer; group stats no longer carry a tracing-backend field.
    code_version = "7"
    cacheable = True

    def __init__(
        self, quorum: int | None = None, sampler_provenance: dict | None = None
    ) -> None:
        self.quorum = quorum
        #: Baked into the result artifact (and therefore this stage's
        #: fingerprint): which sampling engine produced the groups.
        self.sampler_provenance = sampler_provenance

    def params(self) -> Any:
        return (self.quorum, self.sampler_provenance)

    def should_cache(self, result: Any) -> bool:
        # Renormalized over survivors: execution noise, not content.
        return not result.degraded

    def run(self, ctx: StageContext, simulated, groups, scaled, heatmap, quantized, gpu):  # noqa: ARG002
        from ..pipeline import ZatelResult

        predictions, failures = simulated
        scaled_gpu, k = scaled
        # Variances combine only when every surviving group carries one
        # (single-replicate point predictions report none).
        group_variances = [g.variances for g in predictions]
        has_variances = bool(predictions) and all(
            v is not None for v in group_variances
        )
        variances: dict[str, float] = {}
        if failures:
            failures = [
                dataclasses.replace(record, pixel_count=len(groups[record.index]))
                for record in failures
            ]
            quorum = (
                self.quorum if self.quorum is not None else default_quorum(len(groups))
            )
            if len(predictions) < quorum:
                details = "; ".join(record.describe() for record in failures)
                raise DegradedResultError(
                    f"only {len(predictions)} of {len(groups)} groups "
                    f"survived (quorum {quorum}): {details}"
                )
            total_pixels = sum(len(pixels) for pixels in groups)
            surviving_pixels = sum(p.pixel_count for p in predictions)
            coverage = surviving_pixels / total_pixels
            combined = combine_degraded_metrics(
                [g.metrics for g in predictions], coverage
            )
            if has_variances:
                variances = combine_degraded_variances(group_variances, coverage)
        else:
            combined = combine_group_metrics([g.metrics for g in predictions])
            if has_variances:
                variances = combine_group_variances(group_variances)
        return ZatelResult(
            metrics=combined,
            groups=predictions,
            downscale_factor=k,
            gpu_name=gpu.name,
            scaled_gpu_name=scaled_gpu.name,
            heatmap=heatmap,
            quantized=quantized,
            degraded=bool(failures),
            failures=list(failures),
            variances=variances,
            sampler=dict(self.sampler_provenance or {}),
        )


class SamplingSimulateStage(Stage):
    """The Section IV-D baseline: one sampled run on the *full* GPU.

    Selection, filtering and linear extrapolation over the whole plane as
    a single group — no downscaling, no partitioning.
    """

    name = "sampling_simulate"
    # v2: stats carry a telemetry field (interval snapshots + timelines).
    # v3: simulators were backend-selectable; stats carried the backend.
    # v4: one cycle simulator; stats no longer carry a backend field.
    # v5: one tracer; stats no longer carry a tracing-backend field.
    code_version = "5"
    cacheable = True

    def __init__(
        self,
        fraction: float,
        distribution: str = "uniform",
        block_width: int = 32,
        block_height: int = 2,
        seed: int = 0,
    ) -> None:
        self.fraction = fraction
        self.distribution = distribution
        self.block_width = block_width
        self.block_height = block_height
        self.seed = seed

    def params(self) -> Any:
        return (
            self.fraction,
            self.distribution,
            self.block_width,
            self.block_height,
            self.seed,
        )

    def run(self, ctx: StageContext, frame, quantized, gpu, scene):  # noqa: ARG002
        from ...models.sampling_only import SamplingPrediction

        pixels = [
            (px, py) for py in range(frame.height) for px in range(frame.width)
        ]
        selected = select_pixels(
            quantized,
            pixels,
            self.fraction,
            distribution=self.distribution,
            block_width=self.block_width,
            block_height=self.block_height,
            seed=self.seed,
        )
        warps = compile_kernel(frame, pixels, scene.addresses, selected=selected)
        stats = CycleSimulator(gpu, scene.addresses).run(warps)
        return SamplingPrediction(
            fraction=self.fraction,
            selected_count=len(selected),
            stats=stats,
            metrics=linear_extrapolate(stats, self.fraction),
        )
