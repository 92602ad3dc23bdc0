"""The Zatel prediction pipeline (the seven steps of Fig. 3).

::

    (1) profile   -> execution-time heatmap
    (2) quantize  -> K-Means color quantization
    (3) downscale -> GPU config divided by K = gcd(SMs, memory partitions)
    (4) divide    -> K image-plane groups (fine- or coarse-grained)
    (5) select    -> representative pixel subset per group (eq. 1-3)
    (6) simulate  -> one downscaled cycle-simulation instance per group,
                     non-selected pixels filtered via filter_shader
    (7) combine   -> extrapolate per group, then sum/average across groups

Usage::

    frame = trace_frame(scene, RenderSettings(width=128, height=128))
    result = Zatel(MOBILE_SOC).predict(scene, frame)
    print(result.metrics["cycles"])
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

from ..errors import DegradedResultError, FailureRecord
from ..gpu.config import GPUConfig
from ..gpu.frontend import compile_kernel
from ..gpu.simulator import CycleSimulator
from ..gpu.stats import SimulationStats
from ..scene.scene import Scene
from ..tracer.trace import FrameTrace
from .executor import ExecutionPolicy
from .extrapolate import exponential_regression, linear_extrapolate
from .heatmap import Heatmap
from .quantize import QuantizedHeatmap
from .samplers import SAMPLER_NAMES, make_sampler, replicate_mean_and_variance
from .selection import (
    MAX_FRACTION,
    MIN_FRACTION,
    compute_fraction,
    select_pixels,
)
from .stages.base import StageContext, StageGraph, StageNode, source
from .stages.concrete import (
    CombineStage,
    DownscaleStage,
    PartitionStage,
    ProfileStage,
    QuantizeStage,
    SelectStage,
    SimulateGroupStage,
)
from .stages.fingerprint import (
    frame_fingerprint,
    gpu_fingerprint,
    scene_fingerprint,
)
from .stages.store import ArtifactStore

__all__ = [
    "ZatelConfig",
    "GroupPrediction",
    "SubsetEstimate",
    "ZatelResult",
    "Zatel",
]


@dataclass(frozen=True)
class ZatelConfig:
    """Tunable knobs of the Zatel methodology.

    Defaults are the paper's final choices (Section IV-C): fine-grained
    division, uniform distribution, 32x2 section blocks, linear
    extrapolation, traced fraction from equation (1) clamped to
    [0.3, 0.6].
    """

    division: str = "fine"
    distribution: str = "uniform"
    quantize_colors: int = 8
    block_width: int = 32
    block_height: int = 2
    min_fraction: float = MIN_FRACTION
    max_fraction: float = MAX_FRACTION
    #: Force the traced fraction (bypasses equation (1)) — e.g. the paper's
    #: "trace only up to 10% of pixels" PARK experiment.
    fraction_override: float | None = None
    #: ``"linear"`` (default) or ``"regression"`` (Section IV-F).
    extrapolation: str = "linear"
    #: Fractions simulated per group when ``extrapolation="regression"``.
    regression_fractions: tuple[float, ...] = (0.2, 0.3, 0.4)
    #: Downscale factor; ``None`` uses the gcd rule.
    downscale_factor: int | None = None
    #: Heatmap construction knobs (DESIGN.md §5): normalization percentile
    #: and SIMT warp-flattening width (0 disables flattening).
    heatmap_percentile: float = 99.5
    heatmap_warp_width: int = 32
    seed: int = 0
    #: Pixel-selection engine: ``"heatmap"`` (the paper's K-Means quota
    #: method, point predictions), ``"ranked_set"`` or ``"two_phase"``
    #: (replicate-based samplers with variance estimates — see
    #: :mod:`repro.core.samplers`).
    sampler: str = "heatmap"
    #: Independent replicate subsets drawn by the variance-estimating
    #: samplers; ignored by ``"heatmap"`` (always one replicate).
    replicates: int = 5

    def __post_init__(self) -> None:
        if self.division not in ("fine", "coarse"):
            raise ValueError(f"unknown division method {self.division!r}")
        if self.extrapolation not in ("linear", "regression"):
            raise ValueError(f"unknown extrapolation {self.extrapolation!r}")
        if self.fraction_override is not None and not (
            0.0 < self.fraction_override <= 1.0
        ):
            raise ValueError("fraction_override must be in (0, 1]")
        if self.sampler not in SAMPLER_NAMES:
            raise ValueError(
                f"unknown sampler {self.sampler!r}; use one of {SAMPLER_NAMES}"
            )
        if self.replicates < 2:
            raise ValueError("replicates must be >= 2")


@dataclass
class GroupPrediction:
    """One group's simulation outcome and extrapolated metrics."""

    index: int
    pixel_count: int
    fraction: float
    selected_count: int
    stats: SimulationStats
    metrics: dict[str, float]
    #: Work done by this group's simulation instance(s); regression mode
    #: accumulates all three runs, replicate samplers all R draws.
    work_units: int
    #: Variance of each metric's replicate-mean estimate (``None`` for
    #: single-replicate point predictions and regression mode).
    variances: dict[str, float] | None = None
    #: Independent replicate subsets behind ``metrics``; the variance's
    #: degrees of freedom are ``replicates - 1``.
    replicates: int = 1


@dataclass
class SubsetEstimate:
    """Steps 5-6 for one group at one nominal fraction.

    The sampler's :class:`~repro.core.samplers.SampleDesign` replicates
    are each simulated and extrapolated separately; ``metrics`` is the
    replicate mean and ``variances`` the variance *of that mean* (``None``
    when the design has a single replicate).
    """

    metrics: dict[str, float]
    variances: dict[str, float] | None
    stats: SimulationStats
    fraction: float
    selected_count: int
    work_units: int
    replicates: int


@dataclass
class ZatelResult:
    """Zatel's final prediction plus everything needed to audit it.

    ``degraded``/``failures`` report fault-tolerant runs honestly: when
    a group fails permanently the combined metrics are renormalized over
    the survivors (see :func:`~repro.core.combine.combine_degraded_metrics`)
    and every lost group is audited as a
    :class:`~repro.errors.FailureRecord`.
    """

    metrics: dict[str, float]
    groups: list[GroupPrediction]
    downscale_factor: int
    gpu_name: str
    scaled_gpu_name: str
    heatmap: Heatmap
    quantized: QuantizedHeatmap
    host_seconds: float = 0.0
    degraded: bool = False
    failures: list[FailureRecord] = field(default_factory=list)
    #: Variance of each combined metric, aggregated across groups with the
    #: same :data:`~repro.harness.metrics.METRIC_SPECS`-driven rules as the
    #: metrics themselves (empty for point predictions).
    variances: dict[str, float] = field(default_factory=dict)
    #: Sampler provenance: ``{"name", "params", "seed"}`` of the engine
    #: that chose the pixels (see :meth:`~repro.core.samplers.Sampler.
    #: provenance`).
    sampler: dict = field(default_factory=dict)
    #: ``workers > 1`` was requested but the platform has no ``fork``
    #: start method, so the group simulations ran serially in-process.
    #: Metrics are unaffected (groups are independent); only wall-clock
    #: parallelism was lost.  Set by the driver from the stage context's
    #: execution notes — like ``host_seconds``, it describes this run,
    #: not the cached artifact.
    serial_fallback: bool = False

    @property
    def coverage(self) -> float:
        """Fraction of the image plane covered by surviving groups."""
        covered = sum(g.pixel_count for g in self.groups)
        lost = sum(f.pixel_count for f in self.failures)
        total = covered + lost
        return covered / total if total else 0.0

    @property
    def total_work_units(self) -> int:
        """Work summed over groups (serial execution cost)."""
        return sum(g.work_units for g in self.groups)

    @property
    def max_group_work_units(self) -> int:
        """Slowest group's work — the cost when groups run in parallel on
        separate CPU cores, which is how the paper deploys Zatel."""
        if not self.groups:
            raise DegradedResultError(
                "no surviving groups: work accounting is undefined "
                f"({len(self.failures)} group(s) failed)"
            )
        return max(g.work_units for g in self.groups)

    def speedup_vs(self, full: SimulationStats, parallel: bool = True) -> float:
        """Simulation-time speedup over a full run (work-unit based).

        ``parallel=True`` assumes the K group instances run concurrently
        (paper's deployment); ``False`` charges their serial sum.
        """
        cost = self.max_group_work_units if parallel else self.total_work_units
        if cost <= 0:
            return float("inf")
        return full.work_units / cost

    def mean_fraction(self) -> float:
        """Average traced fraction across groups."""
        if not self.groups:
            raise DegradedResultError(
                "no surviving groups: mean fraction is undefined "
                f"({len(self.failures)} group(s) failed)"
            )
        return sum(g.fraction for g in self.groups) / len(self.groups)

    @property
    def dof(self) -> int:
        """Degrees of freedom pooled across groups (Σ replicates-1)."""
        return sum(max(0, g.replicates - 1) for g in self.groups)

    def confidence_intervals(
        self, level: float = 0.95
    ) -> dict[str, tuple[float, float]]:
        """Two-sided Student-t intervals for every metric with a variance.

        Empty for point predictions (the default ``heatmap`` sampler draws
        one replicate, so there is no spread to pool).  The t critical
        value uses the replicate degrees of freedom pooled over groups.
        """
        if not 0.0 < level < 1.0:
            raise ValueError(f"confidence level must be in (0, 1), got {level}")
        if not self.variances or self.dof <= 0:
            return {}
        from scipy.stats import t as student_t

        critical = float(student_t.ppf(0.5 + level / 2.0, self.dof))
        intervals: dict[str, tuple[float, float]] = {}
        for name, variance in self.variances.items():
            if name not in self.metrics:
                continue
            center = self.metrics[name]
            half_width = critical * math.sqrt(max(0.0, variance))
            intervals[name] = (center - half_width, center + half_width)
        return intervals


class Zatel:
    """The Zatel predictor for one GPU configuration.

    Args:
        gpu_config: the *target* (full-size) GPU to predict for.
        config: methodology knobs; defaults are the paper's final tuning.
    """

    def __init__(self, gpu_config: GPUConfig, config: ZatelConfig | None = None) -> None:
        self.gpu_config = gpu_config
        self.config = config if config is not None else ZatelConfig()
        #: The pluggable pixel-selection engine (frozen, picklable — job
        #: processes and ``GroupExecutor`` workers run the same one).
        self.sampler = make_sampler(self.config)

    def sampler_provenance(self) -> dict:
        """``{"name", "params", "seed"}`` describing the selection engine;
        surfaced in :attr:`ZatelResult.sampler`, ``predict --json``, and
        the service payload."""
        return self.sampler.provenance(self.config.seed)

    def predict(
        self,
        scene: Scene,
        frame: FrameTrace,
        workers: int | None = None,
        policy: ExecutionPolicy | None = None,
        fault_plan=None,
        store: ArtifactStore | None = None,
    ) -> ZatelResult:
        """Run the full pipeline against a profiled frame.

        ``frame`` must cover the whole image plane: its per-pixel costs are
        the profiling input (steps 1-2) and its traces are the workload the
        group simulations replay (step 6).

        ``workers`` runs the K group simulations on separate CPU cores —
        the paper's actual deployment ("simulating each group
        simultaneously on different CPU cores").  Requires a platform with
        ``fork`` (falls back to serial elsewhere); results are identical
        either way since groups are independent.

        ``policy`` configures the fault-tolerant execution engine
        (timeouts, retries, checkpoint/resume, quorum); ``workers`` is a
        shorthand that overrides ``policy.workers`` when both are given.
        ``fault_plan`` injects deterministic faults for testing (see
        :mod:`repro.testing.faults`).

        When groups fail permanently despite retries, the result is
        *degraded*: combined metrics are renormalized over survivors and
        ``result.degraded``/``result.failures`` report what was lost.  If
        fewer than the quorum survive (default ``ceil(K/2)``), a
        :class:`~repro.errors.DegradedResultError` is raised instead of
        returning silently wrong numbers.

        ``store`` is an optional :class:`~repro.core.stages.store.
        ArtifactStore`: when given, every stage output (heatmap,
        quantization, group simulations) is memoized by its content
        fingerprint, so repeated or overlapping predictions reuse shared
        work.  Without one, an ephemeral in-memory store is used and the
        call behaves exactly like the historical monolithic pipeline.

        Returns the combined prediction; compare against a full
        :class:`~repro.gpu.simulator.CycleSimulator` run of the same frame
        to measure error.
        """
        start_time = time.perf_counter()
        if policy is None:
            policy = ExecutionPolicy(workers=workers if workers else 1)
        elif workers is not None and workers != policy.workers:
            policy = dataclasses.replace(policy, workers=workers)
        ctx = StageContext(
            store=store if store is not None else ArtifactStore(),
            policy=policy,
            fault_plan=fault_plan,
        )
        graph, terminal = self.build_graph(scene, frame, quorum=policy.quorum)
        result: ZatelResult = graph.resolve(terminal, ctx).value
        # The store owns ``result``; this call's execution notes go on a copy.
        return dataclasses.replace(
            result,
            host_seconds=time.perf_counter() - start_time,
            serial_fallback=bool(ctx.execution_notes.get("serial_fallback", False)),
        )

    # ------------------------------------------------------------------

    def build_graph(
        self,
        scene: Scene,
        frame: FrameTrace,
        quorum: int | None = None,
    ) -> tuple[StageGraph, StageNode]:
        """The seven-step pipeline as a typed stage graph.

        Returns the graph and its terminal (:class:`~repro.core.stages.
        concrete.CombineStage`) node, whose resolved artifact is the
        :class:`ZatelResult`.  Exposed so the sweep planner can resolve
        many predictions' graphs over one shared store.
        """
        cfg = self.config
        graph = StageGraph()
        frame_src = source("frame", frame, key=frame_fingerprint(frame))
        scene_src = source("scene", scene, key=scene_fingerprint(scene))
        gpu_src = source(
            "gpu", self.gpu_config, key=gpu_fingerprint(self.gpu_config)
        )
        heatmap = graph.add(
            ProfileStage(cfg.heatmap_percentile, cfg.heatmap_warp_width),
            frame=frame_src,
        )
        quantized = graph.add(
            QuantizeStage(cfg.quantize_colors, cfg.seed), heatmap=heatmap
        )
        scaled = graph.add(DownscaleStage(cfg.downscale_factor), gpu=gpu_src)
        groups = graph.add(
            PartitionStage(cfg.division, cfg.block_width, cfg.block_height),
            frame=frame_src,
            scaled=scaled,
        )
        fractions = graph.add(
            SelectStage(
                cfg.min_fraction,
                cfg.max_fraction,
                cfg.fraction_override,
                sampler_identity=self.sampler.fingerprint_params(),
            ),
            quantized=quantized,
            groups=groups,
        )
        simulated = graph.add(
            SimulateGroupStage(self),
            frame=frame_src,
            quantized=quantized,
            groups=groups,
            scaled=scaled,
            fractions=fractions,
            scene=scene_src,
        )
        combined = graph.add(
            CombineStage(quorum, sampler_provenance=self.sampler_provenance()),
            simulated=simulated,
            groups=groups,
            scaled=scaled,
            heatmap=heatmap,
            quantized=quantized,
            gpu=gpu_src,
        )
        return graph, combined

    def _resolve_policy(self, policy: ExecutionPolicy | None) -> ExecutionPolicy:
        """The policy a simulate stage should run under (default: serial)."""
        return policy if policy is not None else ExecutionPolicy()

    def _simulate_params(self):
        """Methodology knobs that determine group-simulation *content*.

        This is :class:`~repro.core.stages.concrete.SimulateGroupStage`'s
        fingerprint contribution: everything that changes what the group
        simulations compute (selection seeds/distribution, extrapolation
        mode), plus the predictor class so subclasses with different
        per-group logic never share artifacts.  Execution-policy knobs
        are deliberately absent.
        """
        cfg = self.config
        return (
            type(self).__module__ + "." + type(self).__qualname__,
            cfg.distribution,
            cfg.block_width,
            cfg.block_height,
            cfg.seed,
            cfg.extrapolation,
            cfg.regression_fractions,
            cfg.min_fraction,
            cfg.max_fraction,
            cfg.fraction_override,
            ("sampler",) + self.sampler.fingerprint_params(),
        )

    def _group_fraction(
        self, quantized: QuantizedHeatmap, pixels: list[tuple[int, int]]
    ) -> float:
        """Equation (1), unless the caller pinned the fraction."""
        cfg = self.config
        if cfg.fraction_override is not None:
            return cfg.fraction_override
        return compute_fraction(
            quantized, pixels, cfg.min_fraction, cfg.max_fraction
        )

    def _predict_group(
        self,
        index: int,
        pixels: list[tuple[int, int]],
        frame: FrameTrace,
        quantized: QuantizedHeatmap,
        simulator: CycleSimulator,
        scene: Scene,
        fraction: float | None = None,
    ) -> GroupPrediction:
        """Steps 5-6 for one group, plus its extrapolation.

        ``fraction`` is the group's traced fraction as planned by the
        select stage; ``None`` recomputes it from equation (1) (identical
        by determinism — the parameter only avoids redundant work).
        """
        cfg = self.config
        if fraction is None:
            fraction = self._group_fraction(quantized, pixels)
        group_seed = cfg.seed * 10007 + index

        if cfg.extrapolation == "linear":
            estimate = self._sample_estimate(
                pixels, fraction, frame, quantized, simulator, scene, group_seed
            )
            return GroupPrediction(
                index=index,
                pixel_count=len(pixels),
                fraction=estimate.fraction,
                selected_count=estimate.selected_count,
                stats=estimate.stats,
                metrics=estimate.metrics,
                work_units=estimate.work_units,
                variances=estimate.variances,
                replicates=estimate.replicates,
            )

        # Regression mode fits a saturation curve through the per-fraction
        # point estimates; the fit is nonlinear, so replicate variances do
        # not propagate through it — regression predictions stay point
        # estimates regardless of sampler.
        samples: list[tuple[float, dict[str, float]]] = []
        work = 0
        estimate = None
        for i, sample_fraction in enumerate(cfg.regression_fractions):
            estimate = self._sample_estimate(
                pixels,
                sample_fraction,
                frame,
                quantized,
                simulator,
                scene,
                group_seed + i,
            )
            samples.append((sample_fraction, estimate.metrics))
            work += estimate.work_units
        assert estimate is not None
        return GroupPrediction(
            index=index,
            pixel_count=len(pixels),
            fraction=max(cfg.regression_fractions),
            selected_count=estimate.selected_count,
            stats=estimate.stats,
            metrics=exponential_regression(samples),
            work_units=work,
        )

    def _sample_estimate(
        self,
        pixels: list[tuple[int, int]],
        fraction: float,
        frame: FrameTrace,
        quantized: QuantizedHeatmap,
        simulator: CycleSimulator,
        scene: Scene,
        seed: int,
    ) -> SubsetEstimate:
        """Design a sample, simulate every replicate, pool the estimates.

        The single-replicate default sampler reduces exactly to the
        historical select → simulate → ``linear_extrapolate`` path (the
        golden predict metrics pin this byte-for-byte).
        """
        design = self.sampler.design(quantized, pixels, fraction, seed)
        estimates: list[dict[str, float]] = []
        work = 0
        stats: SimulationStats | None = None
        for subset, subset_fraction in zip(design.replicates, design.fractions):
            warps = compile_kernel(
                frame, pixels, _addresses_of(scene), selected=subset
            )
            stats = simulator.run(warps)
            estimates.append(linear_extrapolate(stats, subset_fraction))
            work += stats.work_units
        assert stats is not None
        if design.replicate_count == 1:
            metrics, variances = estimates[0], None
        else:
            metrics, variances = replicate_mean_and_variance(estimates)
        return SubsetEstimate(
            metrics=metrics,
            variances=variances,
            stats=stats,
            fraction=math.fsum(design.fractions) / design.replicate_count,
            selected_count=design.selected_count,
            work_units=work,
            replicates=design.replicate_count,
        )

    def _simulate_subset(
        self,
        pixels: list[tuple[int, int]],
        fraction: float,
        frame: FrameTrace,
        quantized: QuantizedHeatmap,
        simulator: CycleSimulator,
        scene: Scene,
        seed: int,
    ) -> tuple[SimulationStats, int]:
        """Select a subset and run one downscaled simulation instance.

        The historical single-draw path, still used by the sampling-mode
        stage (:class:`~repro.core.stages.concrete.SamplingSimulateStage`),
        which predates the sampler protocol and always uses the paper's
        selection.
        """
        cfg = self.config
        selected = select_pixels(
            quantized,
            pixels,
            fraction,
            distribution=cfg.distribution,
            block_width=cfg.block_width,
            block_height=cfg.block_height,
            seed=seed,
        )
        warps = compile_kernel(
            frame, pixels, _addresses_of(scene), selected=selected
        )
        return simulator.run(warps), len(selected)


def _addresses_of(scene: Scene):
    """Scene address map accessor (kept separate for test doubles)."""
    return scene.addresses
