"""A GCoM-style analytical performance model (comparison baseline).

Section IV-B compares Zatel against GCoM, the state-of-the-art GPU
analytical model (MAE 26.7%, 7.6x speedup, CPI-stack-only output).  GCoM
itself is closed source, so this module implements the same *family* of
model — interval analysis over trace statistics, no cycle simulation — to
serve as the comparison point:

* compute interval: dynamic instructions through the issue pipeline;
* RT interval: traversal steps through the RT units' warp slots;
* memory interval: estimated miss traffic through DRAM channels;
* cycles = the binding bottleneck plus a latency ramp-up term.

Like GCoM, it produces only pipeline-level outputs (cycles, IPC); cache
and DRAM metrics are *heuristic estimates*, illustrating the limitation the
paper calls out ("can only construct the CPI stack and does not provide
information on other metrics").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.config import GPUConfig
from ..scene.scene import Scene
from ..tracer.trace import FrameTrace

__all__ = ["AnalyticalPrediction", "AnalyticalModel"]


@dataclass
class AnalyticalPrediction:
    """The analytical model's outputs and its CPI-stack decomposition."""

    metrics: dict[str, float]
    #: CPI-stack style breakdown: bottleneck cycle counts per component.
    intervals: dict[str, float]
    bottleneck: str


class AnalyticalModel:
    """Interval-analysis estimate of Table I metrics from trace statistics."""

    #: Assumed average L1 hit rate for BVH traffic when the working set
    #: exceeds the L1 (interval models use fixed service rates).
    _L1_REUSE = 0.92

    def __init__(self, gpu_config: GPUConfig) -> None:
        self.gpu_config = gpu_config

    def predict(self, scene: Scene, frame: FrameTrace) -> AnalyticalPrediction:
        """Estimate metrics for tracing every pixel of ``frame``.

        Unlike the simulator this never replays the trace — it reduces it
        to aggregate counts first, which is precisely why it cannot see
        divergence/queueing interactions (the paper's critique).
        """
        cfg = self.gpu_config
        columns = frame.columns()
        nodes, tris, instructions = columns.pixel_totals()
        total_instructions = int(instructions.sum())
        total_nodes = int(nodes.sum())
        total_tris = int(tris.sum())
        pixels = columns.pixel_count
        warps = max(1, (pixels + cfg.warp_size - 1) // cfg.warp_size)

        # --- compute interval: issue-port throughput ---
        # Warp-instructions approximate thread-instructions / active lanes.
        mean_active = pixels / warps
        warp_instructions = total_instructions / max(1.0, mean_active)
        compute_cycles = warp_instructions / (cfg.num_sms * cfg.issue_width)

        # --- RT interval: traversal-step throughput through warp slots ---
        steps = (total_nodes + total_tris) / max(1.0, mean_active)
        rt_throughput = cfg.num_sms * cfg.rt_units_per_sm * cfg.rt_max_warps
        rt_cycles = steps * cfg.rt_step_cycles / rt_throughput

        # --- memory interval: miss traffic through DRAM ---
        line = cfg.l1d.line_bytes
        node_lines = total_nodes * (1.0 - self._L1_REUSE)
        tri_lines = total_tris * (1.0 - self._L1_REUSE)
        working_set_lines = (
            scene.node_count() * 64 + scene.triangle_count() * 48
        ) / line
        l2_lines = cfg.l2_total_bytes / line
        l2_miss_rate = min(1.0, working_set_lines / max(1.0, l2_lines)) * 0.5
        dram_lines = working_set_lines + (node_lines + tri_lines) * l2_miss_rate
        dram_cycles = (
            dram_lines
            * cfg.dram_service_cycles_per_line
            / cfg.num_mem_partitions
        )

        intervals = {
            "compute": compute_cycles,
            "rt": rt_cycles,
            "memory": dram_cycles,
        }
        bottleneck = max(intervals, key=lambda k: intervals[k])
        # Ramp-up: one latency chain before the pipeline saturates.
        ramp_up = cfg.l2_slice.latency + cfg.dram_latency
        cycles = intervals[bottleneck] + ramp_up

        l1_miss = 1.0 - self._L1_REUSE
        metrics = {
            "ipc": total_instructions / cycles,
            "cycles": cycles,
            "l1d_miss_rate": l1_miss,
            "l2_miss_rate": l2_miss_rate,
            "rt_efficiency": mean_active * 0.5,
            "dram_efficiency": min(1.0, dram_cycles / cycles),
            "bw_utilization": min(1.0, dram_cycles / cycles),
        }
        return AnalyticalPrediction(
            metrics=metrics, intervals=intervals, bottleneck=bottleneck
        )

    @staticmethod
    def work_units(frame: FrameTrace) -> int:
        """Cost proxy of running the analytical model: one pass over the
        trace summary (a few counters per pixel)."""
        return len(frame.pixels)
