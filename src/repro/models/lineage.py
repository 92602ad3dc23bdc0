"""The analytical-model lineage the paper's §II recounts.

GPU analytical models evolved through three generations, each fixing the
previous one's blind spot on the way to ray-tracing workloads:

* **GPUMech** (Huang et al., MICRO'14) — interval analysis over the
  instruction stream; "gave high errors for the emerging memory-divergent
  workloads" because it prices every memory access as if warps coalesce.
* **MDM** (Wang et al., MICRO'20) — adds the *memory divergence model*:
  a divergent warp issues many cache lines per access, so the memory
  interval is priced per distinct line and queueing at DRAM is modelled.
* **GCoM** (Lee et al., ISCA'22) — additionally models sub-core resources
  (for ray tracing, the RT unit's warp slots are the binding sub-core
  resource), giving the state of the art that the paper benchmarks Zatel
  against.

These are reduced-form reconstructions — each uses only aggregate trace
statistics and the GPU config, never a cycle simulation — built so the
repository can reproduce the lineage's error ordering on ray-tracing
workloads (``benchmarks/bench_analytical_lineage.py``).
:class:`~repro.models.analytical.AnalyticalModel` is the GCoM-generation
model with its full CPI-stack output; :class:`GCoMStyleModel` here simply
re-exports its cycle estimate in lineage form.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.config import GPUConfig
from ..scene.scene import Scene
from ..tracer.trace import FrameTrace
from .analytical import AnalyticalModel

__all__ = [
    "LineagePrediction",
    "GPUMechStyleModel",
    "MDMStyleModel",
    "GCoMStyleModel",
    "ANALYTICAL_LINEAGE",
]


@dataclass
class LineagePrediction:
    """A lineage model's cycle estimate with its interval breakdown."""

    cycles: float
    intervals: dict[str, float]
    model_name: str


class _TraceSummary:
    """Aggregate statistics every lineage generation consumes."""

    def __init__(self, scene: Scene, frame: FrameTrace, config: GPUConfig) -> None:
        columns = frame.columns()
        nodes, tris, instructions = columns.pixel_totals()
        self.pixels = columns.pixel_count
        self.warps = max(1, (self.pixels + config.warp_size - 1) // config.warp_size)
        self.mean_active = self.pixels / self.warps
        self.instructions = int(instructions.sum())
        self.nodes = int(nodes.sum())
        self.tris = int(tris.sum())
        self.segments = columns.segment_count
        # Lock-step traversal steps: the per-warp maximum is approximated
        # by the mean plus a divergence margin derived from the variance of
        # per-pixel node counts.
        per_pixel = nodes.tolist()
        mean = self.nodes / max(1, self.pixels)
        var = sum((n - mean) ** 2 for n in per_pixel) / max(1, self.pixels)
        self.divergence = (var**0.5) / mean if mean > 0 else 0.0
        self.warp_steps = (self.nodes + self.tris) / max(1.0, self.mean_active)
        # Working set in cache lines.
        line = config.l1d.line_bytes
        self.working_set_lines = (
            scene.node_count() * 64 + scene.triangle_count() * 48
        ) / line


class GPUMechStyleModel:
    """Generation 1: interval analysis, *no* memory-divergence modelling.

    Every warp memory access is priced as one coalesced transaction whose
    latency is hidden by multithreading, so the model reduces to the issue
    interval plus a single average-latency term.  On divergent ray-tracing
    workloads this under-prices memory time badly — the §II critique.
    """

    name = "GPUMech-style"

    def __init__(self, gpu_config: GPUConfig) -> None:
        self.gpu_config = gpu_config

    def predict(self, scene: Scene, frame: FrameTrace) -> LineagePrediction:
        cfg = self.gpu_config
        summary = _TraceSummary(scene, frame, cfg)
        warp_instructions = summary.instructions / max(1.0, summary.mean_active)
        issue = warp_instructions / (cfg.num_sms * cfg.issue_width)
        # Coalesced-memory assumption: one transaction per warp-step,
        # latency fully overlapped beyond a single exposure per warp.
        exposure = cfg.l1d.latency * summary.warps / (
            cfg.num_sms * cfg.resident_warps_per_sm
        )
        intervals = {"issue": issue, "memory": exposure}
        return LineagePrediction(
            cycles=issue + exposure, intervals=intervals, model_name=self.name
        )


class MDMStyleModel:
    """Generation 2: adds the memory-divergence model.

    The memory interval is priced per *distinct line* a divergent warp
    touches, and DRAM is a bandwidth-limited queue — the two MDM insights.
    Sub-core structures (the RT unit) are still invisible.
    """

    name = "MDM-style"

    #: Assumed L1 hit rate for divergent BVH traffic.
    _L1_REUSE = 0.92

    def __init__(self, gpu_config: GPUConfig) -> None:
        self.gpu_config = gpu_config

    def predict(self, scene: Scene, frame: FrameTrace) -> LineagePrediction:
        cfg = self.gpu_config
        summary = _TraceSummary(scene, frame, cfg)
        warp_instructions = summary.instructions / max(1.0, summary.mean_active)
        issue = warp_instructions / (cfg.num_sms * cfg.issue_width)
        # Divergence: each warp-step touches ~(1 + divergence * lanes/4)
        # distinct lines (MDM prices transactions per line).
        lines_per_step = 1.0 + summary.divergence * summary.mean_active / 4.0
        line_traffic = summary.warp_steps * lines_per_step
        misses = line_traffic * (1.0 - self._L1_REUSE)
        l2_time = misses * cfg.l2_service_cycles / cfg.num_mem_partitions
        dram_lines = summary.working_set_lines
        dram_time = (
            dram_lines * cfg.dram_service_cycles_per_line / cfg.num_mem_partitions
        )
        memory = l2_time + dram_time
        intervals = {"issue": issue, "memory": memory}
        return LineagePrediction(
            cycles=max(issue, memory) + cfg.dram_latency,
            intervals=intervals,
            model_name=self.name,
        )


class GCoMStyleModel:
    """Generation 3: adds sub-core (RT-unit) modelling — the state of the
    art the paper compares Zatel against.  Delegates to
    :class:`~repro.models.analytical.AnalyticalModel`."""

    name = "GCoM-style"

    def __init__(self, gpu_config: GPUConfig) -> None:
        self._inner = AnalyticalModel(gpu_config)

    def predict(self, scene: Scene, frame: FrameTrace) -> LineagePrediction:
        prediction = self._inner.predict(scene, frame)
        return LineagePrediction(
            cycles=prediction.metrics["cycles"],
            intervals=prediction.intervals,
            model_name=self.name,
        )


#: The three generations, oldest first.
ANALYTICAL_LINEAGE = (GPUMechStyleModel, MDMStyleModel, GCoMStyleModel)
