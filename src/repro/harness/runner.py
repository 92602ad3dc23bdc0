"""Experiment runner backed by the content-addressed artifact store.

Every experiment needs (a) a functional frame trace per scene and (b) a
ground-truth full simulation per (scene, GPU config).  Both are
deterministic and expensive, so the runner memoizes them — in memory and
on disk — through a :class:`~repro.core.stages.store.ArtifactStore`
rooted at ``.cache/``, which provides atomic writes and corrupt-entry
recovery.  Cache keys are content fingerprints: the full-simulation key
hashes the *entire* :class:`~repro.gpu.config.GPUConfig` (not just its
name), so editing a config under an unchanged name can never serve a
stale simulation.

The runner is also the convenient entry into sweeps:
:meth:`Runner.sweep` resolves a grid of
:class:`~repro.core.stages.sweep.SweepPoint`\\ s over the shared store,
so overlapping points (same scene, same profiling knobs) profile and
quantize exactly once.

The canonical experiment plane is
:data:`DEFAULT_WIDTH` x :data:`DEFAULT_HEIGHT` (the paper uses 512x512 on a
C++ simulator; see DESIGN.md's scale discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..core.executor import ExecutionPolicy
from ..core.pipeline import Zatel, ZatelConfig, ZatelResult
from ..core.stages.fingerprint import gpu_fingerprint, stable_hash
from ..core.stages.store import ArtifactStore
from ..core.stages.sweep import SweepPlanner, SweepPoint, SweepResult
from ..gpu.config import GPUConfig
from ..gpu.frontend import compile_kernel
from ..gpu.simulator import CycleSimulator
from ..gpu.stats import SimulationStats
from ..scene.registry import resolve_scene
from ..scene.scene import Scene
from ..scene.spec import SceneSpec
from ..tracer.tracer import FunctionalTracer, RenderSettings
from ..tracer.trace import FrameTrace

__all__ = ["Workload", "Runner", "shared_runner", "DEFAULT_WIDTH", "DEFAULT_HEIGHT"]

#: Bump to invalidate on-disk caches after model-affecting code changes.
#: v9: pluggable sampling engine (sampler identity in stage fingerprints,
#: results carry variances + sampler provenance).
#: v10: backend-selectable cycle simulator (SimulationStats carried
#: simulator-backend provenance).
#: v11: first-class scene specs (scene identity is a SceneSpec — recipe
#: knobs, seeds and sequence frames enter every fingerprint; scenes carry
#: their spec and scene_fingerprint hashes it).
#: v12: one cycle simulator (the sharded backend is gone, and with it
#: the backend provenance field on SimulationStats and ZatelResult).
#: v13: traversal records are ``array('I')`` and frames pickle by column,
#: so list-backed frame pickles are never read back.
#: v14: one tracer: frames and simulation stats no longer carry a tracing
#: backend field, and workload keys no longer name one.
#: v15: sealed frames store their traces as CSR columns and pickle them
#: as such (the per-pixel/per-segment column pickle is never read back).
CACHE_VERSION = 15

DEFAULT_WIDTH = 128
DEFAULT_HEIGHT = 128


@dataclass(frozen=True)
class Workload:
    """One ray-tracing workload: a scene at a resolution and sample count.

    ``scene_name`` is either a library scene name string (legacy form)
    or a full :class:`~repro.scene.spec.SceneSpec` — procedural recipes
    and sequence frames hash into the cache keys exactly like any other
    workload coordinate.
    """

    scene_name: str | SceneSpec
    width: int = DEFAULT_WIDTH
    height: int = DEFAULT_HEIGHT
    samples_per_pixel: int = 1
    seed: int = 0

    def settings(self) -> RenderSettings:
        return RenderSettings(
            width=self.width,
            height=self.height,
            samples_per_pixel=self.samples_per_pixel,
            seed=self.seed,
        )

    def key(self) -> str:
        """Stable, filesystem-safe cache key component.

        Spec-identified scenes use a fingerprint-prefix token: recipe
        labels repeat across seeds and contain path-hostile characters.
        """
        scene = self.scene_name
        token = (
            scene
            if isinstance(scene, str)
            else f"{scene.name}-{scene.fingerprint()[:16]}"
        )
        return (
            f"{token}_{self.width}x{self.height}"
            f"_spp{self.samples_per_pixel}_s{self.seed}_v{CACHE_VERSION}"
        )


class Runner:
    """Caches scenes, frame traces and ground-truth simulations."""

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        if cache_dir is None:
            cache_dir = Path(__file__).resolve().parents[3] / ".cache"
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.store = ArtifactStore(self.cache_dir)

    # ------------------------------------------------------------------
    # cache keys
    # ------------------------------------------------------------------

    @staticmethod
    def frame_key(workload: Workload) -> str:
        """Content address of a workload's full-plane frame trace."""
        return stable_hash("harness_frame", workload, CACHE_VERSION)

    @staticmethod
    def full_sim_key(workload: Workload, gpu: GPUConfig) -> str:
        """Content address of a ground-truth simulation.

        Hashes every field of ``gpu`` (via :func:`gpu_fingerprint`), not
        just its name: two configs sharing a name but differing in any
        architectural knob get distinct entries.
        """
        return stable_hash(
            "harness_full_sim", workload, gpu_fingerprint(gpu), CACHE_VERSION
        )

    # ------------------------------------------------------------------

    def scene(self, name: str | SceneSpec) -> Scene:
        """The (process-cached) scene for a library name or spec."""
        return resolve_scene(name)

    def frame(self, workload: Workload) -> FrameTrace:
        """Full-plane functional trace of a workload, cached to disk."""
        return self.store.get_or_compute(
            self.frame_key(workload),
            lambda: FunctionalTracer(
                self.scene(workload.scene_name), workload.settings()
            ).trace_frame(),
        )

    def full_sim(self, workload: Workload, gpu: GPUConfig) -> SimulationStats:
        """Ground truth: simulate every pixel on the full configuration."""

        def compute() -> SimulationStats:
            scene = self.scene(workload.scene_name)
            frame = self.frame(workload)
            pixels = workload.settings().all_pixels()
            warps = compile_kernel(frame, pixels, scene.addresses)
            return CycleSimulator(gpu, scene.addresses).run(warps)

        return self.store.get_or_compute(
            self.full_sim_key(workload, gpu), compute
        )

    def telemetry_sim(
        self,
        workload: Workload,
        gpu: GPUConfig,
        interval: int,
        timeline: bool = True,
    ) -> SimulationStats:
        """Full simulation with the telemetry bus enabled.

        A convenience over :meth:`full_sim` with a telemetry-instrumented
        copy of ``gpu``; cached separately from the plain ground truth
        because :func:`~repro.core.stages.fingerprint.gpu_fingerprint`
        hashes every config field, telemetry knobs included.
        """
        from dataclasses import replace

        instrumented = replace(
            gpu, telemetry_interval=interval, timeline_trace=timeline
        )
        return self.full_sim(workload, instrumented)

    # ------------------------------------------------------------------

    def zatel(
        self,
        workload: Workload,
        gpu: GPUConfig,
        config: ZatelConfig | None = None,
        policy: ExecutionPolicy | None = None,
        store: ArtifactStore | None = None,
    ) -> ZatelResult:
        """Run the Zatel pipeline on a workload.

        Not cached by default: it is the system under test and is cheap
        relative to ground truth.  Pass ``store=runner.store`` (or any
        other) to memoize stage artifacts across calls — what the sweep
        planner does for whole grids.

        ``policy`` threads through to the fault-tolerant execution engine
        (workers, timeouts, retries, checkpoint/resume)."""
        scene = self.scene(workload.scene_name)
        frame = self.frame(workload)
        return Zatel(gpu, config).predict(scene, frame, policy=policy, store=store)

    def sweep(
        self,
        points: list[SweepPoint],
        policy: ExecutionPolicy | None = None,
        stage_policy: ExecutionPolicy | None = None,
        width: int = DEFAULT_WIDTH,
        height: int = DEFAULT_HEIGHT,
    ) -> SweepResult:
        """Execute a sweep grid over the runner's shared store.

        Loads each point's scene and frame through the runner's caches,
        then resolves every point's graph over the shared store — so
        shared profiling/quantization work executes exactly once per
        scene, and a repeated sweep reads one persisted result per point.
        """
        names = sorted({point.scene for point in points})
        scenes = {name: self.scene(name) for name in names}
        frames = {
            name: self.frame(Workload(name, width=width, height=height))
            for name in names
        }
        planner = SweepPlanner(
            store=self.store, policy=policy, stage_policy=stage_policy
        )
        return planner.run(points, scenes, frames)

    def campaign(
        self,
        campaign,
        policy: ExecutionPolicy | None = None,
        stage_policy: ExecutionPolicy | None = None,
    ):
        """Execute a :class:`~repro.core.stages.campaign.Campaign` with
        every frame trace and stage artifact cached through the runner's
        disk-backed store."""
        from ..core.stages.campaign import CampaignPlanner

        def frame_source(scene, point):
            workload = Workload(
                point.spec,
                width=point.size,
                height=point.size,
                samples_per_pixel=point.spp,
                seed=point.seed,
            )
            return self.store.get_or_compute(
                self.frame_key(workload),
                lambda: FunctionalTracer(
                    scene, workload.settings()
                ).trace_frame(),
            )

        planner = CampaignPlanner(
            store=self.store,
            policy=policy,
            stage_policy=stage_policy,
            scene_source=self.scene,
            frame_source=frame_source,
        )
        return planner.run(campaign)

    def checkpoint_dir(self, workload: Workload, gpu: GPUConfig) -> Path:
        """Canonical per-(workload, GPU) checkpoint directory for
        resumable predictions."""
        return self.cache_dir / "checkpoints" / f"{workload.key()}_{gpu.name}"


_shared: Runner | None = None


def shared_runner() -> Runner:
    """Process-wide runner so benchmarks share caches."""
    global _shared
    if _shared is None:
        _shared = Runner()
    return _shared
