"""Simulation statistics: the metrics of paper Table I.

:class:`SimulationStats` is the simulator's entire observable output; Zatel
and the baselines only ever manipulate these numbers (extrapolate, combine,
compare).  The canonical metric names, order, descriptions and
extrapolation/combination kinds all derive from the single instrument
registry in :mod:`repro.gpu.telemetry` (:data:`~repro.gpu.telemetry.
METRIC_SPECS`); this module re-exports the familiar views (:data:`METRICS`,
:data:`EXTENDED_METRICS`, :data:`METRIC_DESCRIPTIONS`, :class:`MetricKind`)
so downstream code keeps one import site.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .telemetry import (
    KIND_ABSOLUTE,
    KIND_RATE,
    KIND_THROUGHPUT,
    METRIC_REGISTRY,
    METRIC_SPECS,
    TelemetryRecord,
)

__all__ = [
    "SimulationStats",
    "METRICS",
    "EXTENDED_METRICS",
    "METRIC_DESCRIPTIONS",
    "MetricKind",
    "merge_simulation_stats",
]

#: Canonical metric keys, in the paper's Table I order (registry-derived).
METRICS = tuple(spec.name for spec in METRIC_SPECS if not spec.extended)

#: Supplementary metrics beyond Table I ("Zatel ... can estimate any
#: metric that Vulkan-Sim provides, as desired by the user" — these are
#: the extra ones our simulator provides).  They are not part of the
#: paper's evaluation tables, but they carry through extrapolation and
#: combination like any other rate metric, so a full ``predict`` reports
#: them alongside Table I.
EXTENDED_METRICS = tuple(spec.name for spec in METRIC_SPECS if spec.extended)

#: Table I descriptions, keyed by metric (registry-derived).
METRIC_DESCRIPTIONS = {
    spec.name: spec.description for spec in METRIC_SPECS if not spec.extended
}


class MetricKind:
    """How a metric behaves under Zatel's extrapolation and combination.

    ``ABSOLUTE`` metrics (cycles, instructions) scale with the amount of
    work simulated and are linearly extrapolated (Section III-G);
    ``RATE`` metrics (miss rates, efficiencies) are already normalized and
    are passed through per group, then averaged across groups;
    ``THROUGHPUT`` metrics (IPC) are *summed* across groups because the
    groups' GPUs run concurrently (Section III-H's 20+50 = 70 IPC example).

    This is a compatibility view over the telemetry metric registry — the
    kinds live on :data:`~repro.gpu.telemetry.METRIC_SPECS`.
    """

    ABSOLUTE = KIND_ABSOLUTE
    RATE = KIND_RATE
    THROUGHPUT = KIND_THROUGHPUT

    BY_METRIC = {spec.name: spec.kind for spec in METRIC_SPECS}


@dataclass
class SimulationStats:
    """Raw counters of one simulation instance plus derived Table I metrics."""

    config_name: str = ""
    cycles: float = 0.0
    instructions: int = 0
    # caches
    l1d_accesses: int = 0
    l1d_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    # RT units
    rt_traversal_steps: int = 0
    rt_active_ray_steps: int = 0
    # DRAM
    dram_requests: int = 0
    dram_data_cycles: float = 0.0
    dram_pending_cycles: float = 0.0
    dram_channels: int = 1
    # extended pipeline counters (beyond Table I)
    #: Warp-level instruction issue slots consumed (lock-step maxima).
    issued_warp_instructions: int = 0
    #: Integral of resident warps over time: sum over warps of
    #: (completion - activation) cycles.
    warp_resident_cycles: float = 0.0
    warp_size: int = 32
    sm_count: int = 1
    resident_limit: int = 1
    # bookkeeping
    warps: int = 0
    pixels_traced: int = 0
    pixels_filtered: int = 0
    #: Deterministic simulation-work proxy (events processed); stands in
    #: for host wall-clock when computing speedups reproducibly.
    work_units: int = 0
    host_seconds: float = 0.0
    #: Interval snapshots + timeline events captured by the telemetry bus,
    #: or None when the producing config left telemetry off.  Excluded
    #: from equality: telemetry is observability, not a metric.
    telemetry: TelemetryRecord | None = field(
        default=None, compare=False, repr=False
    )

    # ------------------------------------------------------------------
    # derived metrics (Table I)
    # ------------------------------------------------------------------

    @property
    def ipc(self) -> float:
        """Thread-instructions per cycle over the whole GPU."""
        return self.instructions / self.cycles if self.cycles > 0 else 0.0

    @property
    def l1d_miss_rate(self) -> float:
        return self.l1d_misses / self.l1d_accesses if self.l1d_accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        return self.l2_misses / self.l2_accesses if self.l2_accesses else 0.0

    @property
    def rt_efficiency(self) -> float:
        """Average active rays per warp per traversal step."""
        if self.rt_traversal_steps == 0:
            return 0.0
        return self.rt_active_ray_steps / self.rt_traversal_steps

    @property
    def dram_efficiency(self) -> float:
        if self.dram_pending_cycles <= 0:
            return 0.0
        return min(1.0, self.dram_data_cycles / self.dram_pending_cycles)

    @property
    def bw_utilization(self) -> float:
        if self.cycles <= 0 or self.dram_channels <= 0:
            return 0.0
        return min(
            1.0, self.dram_data_cycles / (self.cycles * self.dram_channels)
        )

    @property
    def simd_efficiency(self) -> float:
        """Active thread-instructions per issued warp-instruction slot,
        normalized by the warp width — 1.0 means every issued instruction
        had all lanes live (extended metric)."""
        if self.issued_warp_instructions <= 0 or self.warp_size <= 0:
            return 0.0
        return self.instructions / (
            self.issued_warp_instructions * self.warp_size
        )

    @property
    def warp_occupancy(self) -> float:
        """Average resident-warp slots in use across the run, in [0, 1]
        (extended metric)."""
        capacity = self.cycles * self.sm_count * self.resident_limit
        if capacity <= 0:
            return 0.0
        return min(1.0, self.warp_resident_cycles / capacity)

    def metric(self, name: str) -> float:
        """Look up a metric (Table I or extended) by canonical name."""
        if name not in METRIC_REGISTRY:
            raise KeyError(
                f"unknown metric {name!r}; known: {METRICS + EXTENDED_METRICS}"
            )
        return float(getattr(self, name))

    def metrics(self) -> dict[str, float]:
        """All Table I metrics as a dict (canonical order)."""
        return {name: self.metric(name) for name in METRICS}

    def extended_metrics(self) -> dict[str, float]:
        """The supplementary (non-Table-I) metrics."""
        return {name: self.metric(name) for name in EXTENDED_METRICS}

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------

    def merge_from(self, other: "SimulationStats") -> "SimulationStats":
        """Fold another instance's raw counters into this one.

        Models the merged instances as *concurrently running partitions of
        the same workload* (the Section III-H picture): additive counters
        sum, ``cycles`` takes the slowest partition, and the hardware
        extents (``sm_count``, ``dram_channels``) add up.

        Mismatched provenance is rejected rather than silently combined —
        mixing configs produces numbers that *look* like one run's
        statistics but mean nothing.

        Raises:
            ValueError: if ``config_name``, ``warp_size`` or
                ``resident_limit`` disagree.
        """
        for attr in ("config_name", "warp_size", "resident_limit"):
            mine, theirs = getattr(self, attr), getattr(other, attr)
            if mine != theirs:
                raise ValueError(
                    f"cannot merge SimulationStats with mismatched {attr}: "
                    f"{mine!r} != {theirs!r}"
                )
        self.cycles = max(self.cycles, other.cycles)
        for attr in (
            "instructions",
            "l1d_accesses",
            "l1d_misses",
            "l2_accesses",
            "l2_misses",
            "rt_traversal_steps",
            "rt_active_ray_steps",
            "dram_requests",
            "dram_data_cycles",
            "dram_pending_cycles",
            "dram_channels",
            "issued_warp_instructions",
            "warp_resident_cycles",
            "sm_count",
            "warps",
            "pixels_traced",
            "pixels_filtered",
            "work_units",
            "host_seconds",
        ):
            setattr(self, attr, getattr(self, attr) + getattr(other, attr))
        self.telemetry = None  # interval timelines don't merge meaningfully
        return self

    def summary(self) -> str:
        """Human-readable one-run report."""
        rows = [
            f"simulation of {self.pixels_traced} pixels "
            f"({self.pixels_filtered} filtered) on {self.config_name}: "
            f"{self.warps} warps"
        ]
        for name, value in self.metrics().items():
            rows.append(f"  {name:16s} {value:12.4f}")
        for name, value in self.extended_metrics().items():
            rows.append(f"  {name:16s} {value:12.4f}  (extended)")
        rows.append(f"  {'work_units':16s} {self.work_units:12d}")
        return "\n".join(rows)


def merge_simulation_stats(runs: list[SimulationStats]) -> SimulationStats:
    """Merge same-provenance runs into one aggregate (see ``merge_from``).

    Raises:
        ValueError: for an empty list or mismatched provenance.
    """
    if not runs:
        raise ValueError("cannot merge zero SimulationStats")
    total = SimulationStats(
        config_name=runs[0].config_name,
        warp_size=runs[0].warp_size,
        resident_limit=runs[0].resident_limit,
        sm_count=0,
        dram_channels=0,
    )
    for run in runs:
        total.merge_from(run)
    return total


def _validate_metric_tables() -> None:
    """Keep METRICS, descriptions and kinds in lock-step with the registry."""
    assert set(METRIC_DESCRIPTIONS) == set(METRICS)
    assert set(MetricKind.BY_METRIC) == set(METRICS) | set(EXTENDED_METRICS)
    assert all(
        isinstance(getattr(SimulationStats, name), property)
        for name in METRICS + EXTENDED_METRICS
        if name != "cycles"
    )
    counter_fields = {f.name for f in fields(SimulationStats)}
    assert "cycles" in counter_fields


_validate_metric_tables()
