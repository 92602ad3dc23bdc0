"""Shared experiment drivers for the benchmark suite.

Each ``bench_*`` module reproduces one table or figure from the paper's
evaluation (Section IV); the sweeps several figures share are computed here
once per session (see ``conftest.py``).  All speedups are reported from the
simulator's deterministic ``work_units`` (see DESIGN.md's substitution
table); host seconds are tracked alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import SweepPoint, ZatelConfig
from repro.core.stages.sweep import SweepResult
from repro.gpu import MOBILE_SOC, RTX_2060, GPUConfig, SimulationStats
from repro.harness import Runner, Workload
from repro.scene import SCENE_NAMES

__all__ = [
    "CONFIGS",
    "PERCENTAGES",
    "SamplingSweep",
    "DownscaleSweep",
    "run_sampling_sweep",
    "run_downscale_sweep",
    "workload_for",
]

#: The two Table II configurations every experiment runs on.
CONFIGS: tuple[GPUConfig, ...] = (MOBILE_SOC, RTX_2060)

#: Section IV-D's sweep: {10%, 20%, ..., 90%} of pixels traced.
PERCENTAGES: tuple[int, ...] = tuple(range(10, 100, 10))


def workload_for(scene_name: str) -> Workload:
    """The canonical benchmark workload for a scene."""
    return Workload(scene_name)


@dataclass
class SamplingSweep:
    """Results of the pixel-fraction sweep for one GPU configuration.

    ``points[scene][perc]`` holds the sampling-only prediction at ``perc``
    percent of pixels; ``full[scene]`` the ground truth.
    """

    gpu: GPUConfig
    points: dict[str, dict[int, object]]
    full: dict[str, SimulationStats]
    #: Planner execution audit (stage counters, dedup stats); ``None``
    #: only for hand-built sweeps.
    sweep: SweepResult | None = None


def run_sampling_sweep(
    runner: Runner,
    gpu: GPUConfig,
    scenes: tuple[str, ...] = SCENE_NAMES,
    percentages: tuple[int, ...] = PERCENTAGES,
    seed: int = 0,
) -> SamplingSweep:
    """Section IV-D's experiment: sample without downscaling, extrapolate.

    The whole grid runs as one sweep over the runner's store: every
    percentage of a scene shares that scene's profile and quantization,
    so those stages run once per scene instead of once per point.
    """
    config = ZatelConfig(seed=seed)
    grid = [
        (scene_name, perc)
        for scene_name in scenes
        for perc in percentages
    ]
    sweep_points = [
        SweepPoint(
            scene_name, gpu, config=config, mode="sampling", fraction=perc / 100.0
        )
        for scene_name, perc in grid
    ]
    sweep = runner.sweep(sweep_points)
    points: dict[str, dict[int, object]] = {}
    for (scene_name, perc), point in zip(grid, sweep_points):
        points.setdefault(scene_name, {})[perc] = sweep.value(point)
    full = {
        scene_name: runner.full_sim(workload_for(scene_name), gpu)
        for scene_name in scenes
    }
    return SamplingSweep(gpu=gpu, points=points, full=full, sweep=sweep)


@dataclass
class DownscaleSweep:
    """Results of the downscale-factor sweep for one GPU configuration.

    ``results[(scene, division, k)]`` holds the Zatel result with *all*
    pixels of each group traced (isolating the downscaling optimization,
    Section IV-E); ``full[scene]`` the ground truth.
    """

    gpu: GPUConfig
    results: dict[tuple[str, str, int], object]
    full: dict[str, SimulationStats]
    factors: tuple[int, ...]
    #: Planner execution audit (stage counters, dedup stats); ``None``
    #: only for hand-built sweeps.
    sweep: SweepResult | None = None


def run_downscale_sweep(
    runner: Runner,
    gpu: GPUConfig,
    scenes: tuple[str, ...],
    divisions: tuple[str, ...] = ("fine", "coarse"),
) -> DownscaleSweep:
    """Section IV-E's experiment: groups on downscaled GPUs, no sampling.

    Run as one sweep: the (division, K) grid of a scene shares one
    profile/quantize, and the two divisions share them too — only
    partition/select/simulate/combine differ per cell.
    """
    from repro.core import valid_factors

    factors = tuple(k for k in valid_factors(gpu) if k > 1)
    grid = [
        (scene_name, division, k)
        for scene_name in scenes
        for division in divisions
        for k in factors
    ]
    sweep_points = [
        SweepPoint(
            scene_name,
            gpu,
            config=ZatelConfig(
                division=division,
                fraction_override=1.0,  # trace every pixel of each group
                downscale_factor=k,
            ),
        )
        for scene_name, division, k in grid
    ]
    sweep = runner.sweep(sweep_points)
    results: dict[tuple[str, str, int], object] = {
        cell: sweep.value(point) for cell, point in zip(grid, sweep_points)
    }
    full = {
        scene_name: runner.full_sim(workload_for(scene_name), gpu)
        for scene_name in scenes
    }
    return DownscaleSweep(
        gpu=gpu, results=results, full=full, factors=factors, sweep=sweep
    )
