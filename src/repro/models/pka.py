"""A Principal-Kernel-Analysis-style projection baseline.

Section IV-B argues PKA's *Principal Kernel Projection* — "terminate the
simulation when the desired metric stabilizes" — is risky for ray tracing:
"since most of our evaluated workloads ... involve tracing highly divergent
rays, Principal Kernel Projection might stop the simulation too early,
outputting a value with high error."

This predictor reproduces that behaviour: it simulates growing *contiguous
prefixes* of the warp launch order (as a time-ordered simulation would
retire them), checks whether per-warp cycles have stabilized between
checkpoints, stops at the first stable point and linearly projects.  On
scenes whose complexity is unevenly distributed across the plane (the top
rows are sky), the early stop locks in a biased estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.extrapolate import linear_extrapolate
from ..gpu.config import GPUConfig
from ..gpu.frontend import compile_kernel
from ..gpu.simulator import CycleSimulator
from ..gpu.stats import SimulationStats
from ..scene.scene import Scene
from ..tracer.trace import FrameTrace

__all__ = ["PKAPrediction", "PKAProjection"]


@dataclass
class PKAPrediction:
    """Outcome of the projection, including where it stopped."""

    metrics: dict[str, float]
    stopped_fraction: float
    checkpoints: list[tuple[float, float]]  # (fraction, cycles-per-warp)
    stats: SimulationStats
    #: Work spent across every checkpoint simulation.
    work_units: int

    def speedup_vs(self, full: SimulationStats) -> float:
        if self.work_units <= 0:
            return float("inf")
        return full.work_units / self.work_units


class PKAProjection:
    """Early-termination projection over warp-launch-order prefixes."""

    def __init__(
        self,
        gpu_config: GPUConfig,
        step_fraction: float = 0.1,
        stability_threshold: float = 0.05,
    ) -> None:
        if not 0.0 < step_fraction <= 0.5:
            raise ValueError("step_fraction must be in (0, 0.5]")
        self.gpu_config = gpu_config
        self.step_fraction = step_fraction
        self.stability_threshold = stability_threshold

    def predict(self, scene: Scene, frame: FrameTrace) -> PKAPrediction:
        """Simulate prefixes until cycles-per-warp stabilizes, then project.

        The monitored metric is cycles per retired warp — the projection
        target the paper's critique concerns.  Stability means two
        consecutive checkpoints agree within ``stability_threshold``.
        """
        pixels = [
            (px, py) for py in range(frame.height) for px in range(frame.width)
        ]
        simulator = CycleSimulator(self.gpu_config, scene.addresses)
        checkpoints: list[tuple[float, float]] = []
        work = 0
        previous_rate: float | None = None
        stats: SimulationStats | None = None
        fraction = self.step_fraction
        while True:
            fraction = min(1.0, fraction)
            prefix = pixels[: max(1, int(len(pixels) * fraction))]
            warps = compile_kernel(frame, prefix, scene.addresses)
            stats = simulator.run(warps)
            work += stats.work_units
            rate = stats.cycles / max(1, stats.warps)
            checkpoints.append((fraction, rate))
            stable = (
                previous_rate is not None
                and abs(rate - previous_rate) <= self.stability_threshold * previous_rate
            )
            if stable or fraction >= 1.0:
                break
            previous_rate = rate
            fraction += self.step_fraction
        assert stats is not None
        return PKAPrediction(
            metrics=linear_extrapolate(stats, fraction),
            stopped_fraction=fraction,
            checkpoints=checkpoints,
            stats=stats,
            work_units=work,
        )
