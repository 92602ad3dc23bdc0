"""Sweeps: many predictions over one shared artifact store.

The evaluation sweeps (Figs. 13-20) run grids of (scene x GPU config x
methodology variation).  :class:`SweepPlanner` builds each point's stage
graph and resolves its sink with :meth:`~.base.StageGraph.resolve`, the
one executor every prediction uses.  Points that share a scene share
its profile and quantize artifacts through the store: the first point
to need one runs the stage and the others hit it, so a Fig 16-style
sweep (one scene, many traced percentages) profiles and quantizes the
scene exactly once.  A re-run over a persisted store probes each sink
first and reads one combined result per point.

Each distinct sink runs as one task of the fault-tolerant
:class:`~repro.core.executor.GroupExecutor`, so a failing point becomes
that point's failure outcome and leaves the others alone.  The
per-stage execution/hit counters on the result make the sharing
auditable (and testable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ...gpu.config import GPUConfig
from ..executor import ExecutionPolicy, GroupExecutor
from .base import StageContext, StageCounters, StageGraph, StageNode
from .store import ArtifactStore

__all__ = ["SweepPoint", "SweepOutcome", "SweepResult", "SweepPlanner"]


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a sweep grid.

    ``mode="zatel"`` runs the full seven-step pipeline under ``config``;
    ``mode="sampling"`` runs the Section IV-D sampling-only baseline at
    ``fraction`` of pixels on the full GPU (``config`` then contributes
    only the profiling/quantization/selection knobs).
    """

    scene: str
    gpu: GPUConfig
    config: Any = None  # ZatelConfig; None means defaults
    mode: str = "zatel"
    fraction: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("zatel", "sampling"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        if self.mode == "sampling":
            if self.fraction is None or not 0.0 < self.fraction <= 1.0:
                raise ValueError(
                    "sampling-mode points need a fraction in (0, 1]"
                )

    def describe(self) -> str:
        if self.mode == "sampling":
            suffix = f"sampling@{self.fraction:.0%}"
        else:
            suffix = "zatel"
            sampler = getattr(self.config, "sampler", "heatmap")
            if sampler != "heatmap":
                suffix = f"zatel[{sampler}]"
        return f"{self.scene}/{self.gpu.name}/{suffix}"


@dataclass
class SweepOutcome:
    """One point's result — a value or an audited failure."""

    point: SweepPoint
    value: Any = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepResult:
    """Everything a sweep execution produced and observed.

    ``total_nodes`` counts the stage nodes of every point's graph;
    ``unique_nodes`` counts their distinct fingerprints.  The difference
    is stage work the shared store saves a point-by-point run.
    """

    outcomes: dict[SweepPoint, SweepOutcome]
    counters: StageCounters
    total_nodes: int
    unique_nodes: int
    failures: list[Any] = field(default_factory=list)

    @property
    def deduplicated_nodes(self) -> int:
        return self.total_nodes - self.unique_nodes

    def value(self, point: SweepPoint) -> Any:
        """The result for ``point``; raises if that point failed."""
        outcome = self.outcomes[point]
        if not outcome.ok:
            raise RuntimeError(
                f"sweep point {point.describe()} failed: {outcome.error}"
            )
        return outcome.value

    @property
    def succeeded(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes.values())

    def executions_of(self, stage_name: str) -> int:
        return self.counters.executions.get(stage_name, 0)


class SweepPlanner:
    """Resolves sweep grids over a shared artifact store.

    Args:
        store: artifact store shared across the sweep (and, when backed
            by disk, across runs); defaults to an ephemeral in-memory
            store.
        policy: execution policy for the per-point tasks — each distinct
            sink resolves as one indexed task of
            :class:`~repro.core.executor.GroupExecutor` under this policy
            (retries, timeouts, optional forked workers).
        stage_policy: policy handed down to the per-group executor
            *inside* each simulate stage.
    """

    def __init__(
        self,
        store: ArtifactStore | None = None,
        policy: ExecutionPolicy | None = None,
        stage_policy: ExecutionPolicy | None = None,
    ) -> None:
        self.store = store if store is not None else ArtifactStore()
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.stage_policy = stage_policy

    def run(
        self,
        points: list[SweepPoint],
        scenes: Mapping[str, Any],
        frames: Mapping[str, Any],
    ) -> SweepResult:
        """Resolve every point's sink; never raises for a failed point.

        ``scenes``/``frames`` map scene names to the loaded
        :class:`~repro.scene.scene.Scene` and full-plane
        :class:`~repro.tracer.trace.FrameTrace` each point needs.
        Duplicate points share one task.  Under forked workers a stage
        shared by points that run at the same time executes in each of
        them; the counters report every execution.
        """
        fp_cache: dict[int, str] = {}
        sinks: dict[str, tuple[StageGraph, StageNode]] = {}
        point_keys: list[str] = []
        node_keys: set[str] = set()
        total_nodes = 0
        for point in points:
            graph, sink = self._graph(
                point, scenes[point.scene], frames[point.scene]
            )
            total_nodes += len(graph.nodes)
            node_keys.update(
                node.fingerprint_static(fp_cache) for node in graph.nodes
            )
            key = sink.fingerprint_static(fp_cache)
            sinks.setdefault(key, (graph, sink))
            point_keys.append(key)
        tasks = list(sinks)

        def task(index: int, attempt: int):  # noqa: ARG001
            graph, sink = sinks[tasks[index]]
            ctx = StageContext(store=self.store, policy=self.stage_policy)
            return graph.resolve(sink, ctx).value, ctx.counters

        report = GroupExecutor(self.policy).run(task, len(tasks))
        counters = StageCounters()
        values: dict[str, Any] = {}
        for index in sorted(report.results):
            key = tasks[index]
            value, task_counters = report.results[index]
            counters.fold(task_counters)
            values[key] = value
            # A forked task wrote only to its child process's copy of the
            # store; an in-process task already put its sink value here.
            if not self.store.contains(key):
                stage = sinks[key][1].stage
                self.store.put(
                    key,
                    value,
                    persist=stage.cacheable and stage.should_cache(value),
                )
        errors = {
            tasks[record.index]: record.describe() for record in report.failures
        }
        return SweepResult(
            outcomes={
                point: SweepOutcome(
                    point, value=values.get(key), error=errors.get(key)
                )
                for point, key in zip(points, point_keys)
            },
            counters=counters,
            total_nodes=total_nodes,
            unique_nodes=len(node_keys),
            failures=report.failures,
        )

    @staticmethod
    def _graph(
        point: SweepPoint, scene: Any, frame: Any
    ) -> tuple[StageGraph, StageNode]:
        """``point``'s stage graph and its sink node."""
        from ...models.sampling_only import SamplingPredictor
        from ..pipeline import Zatel, ZatelConfig

        config = point.config if point.config is not None else ZatelConfig()
        if point.mode == "zatel":
            return Zatel(point.gpu, config).build_graph(scene, frame)
        predictor = SamplingPredictor(
            point.gpu,
            distribution=config.distribution,
            block_width=config.block_width,
            block_height=config.block_height,
            quantize_colors=config.quantize_colors,
            seed=config.seed,
        )
        return predictor.build_graph(scene, frame, point.fraction)
