"""Cycle-level GPU timing simulator (the Vulkan-Sim stand-in)."""

from .cache import Cache, CacheStats, MSHRTable, line_of
from .config import MOBILE_SOC, RTX_2060, CacheConfig, GPUConfig, preset
from .configfile import load_config, resolve_gpu, save_config
from .dram import DRAMChannel, DRAMStats
from .frontend import compile_kernel
from .interconnect import Interconnect
from .memory import MemorySubsystem
from .rt_unit import RTStats, RTUnit
from .simulator import CoreStats, CycleSimulator
from .sm import SM, SMStats
from .stats import (
    EXTENDED_METRICS,
    METRIC_DESCRIPTIONS,
    METRICS,
    MetricKind,
    SimulationStats,
    merge_simulation_stats,
)
from .telemetry import (
    METRIC_REGISTRY,
    METRIC_SPECS,
    Counter,
    Histogram,
    IntervalSnapshot,
    MetricSpec,
    RatioGauge,
    StatGroup,
    TelemetryBus,
    TelemetryRecord,
    TimelineEvent,
    aggregate_metrics,
    downsample_events,
    export_zperf,
    load_zperf,
    slice_events,
)
from .warp import ComputeOp, StoreOp, TraceOp, WarpState, WarpTask

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheStats",
    "ComputeOp",
    "CoreStats",
    "Counter",
    "CycleSimulator",
    "DRAMChannel",
    "DRAMStats",
    "GPUConfig",
    "Histogram",
    "Interconnect",
    "IntervalSnapshot",
    "MOBILE_SOC",
    "MSHRTable",
    "EXTENDED_METRICS",
    "METRICS",
    "METRIC_DESCRIPTIONS",
    "METRIC_REGISTRY",
    "METRIC_SPECS",
    "MemorySubsystem",
    "MetricKind",
    "MetricSpec",
    "RTStats",
    "RTUnit",
    "RTX_2060",
    "RatioGauge",
    "SM",
    "SMStats",
    "SimulationStats",
    "StatGroup",
    "StoreOp",
    "TelemetryBus",
    "TelemetryRecord",
    "TimelineEvent",
    "TraceOp",
    "WarpState",
    "WarpTask",
    "aggregate_metrics",
    "compile_kernel",
    "downsample_events",
    "export_zperf",
    "line_of",
    "load_config",
    "load_zperf",
    "merge_simulation_stats",
    "preset",
    "resolve_gpu",
    "save_config",
    "slice_events",
]
