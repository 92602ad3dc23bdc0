"""GPU configurations (paper Table II) and downscaling-aware derivation.

Two presets mirror the paper's evaluation targets:

* :data:`MOBILE_SOC` — 8 SMs, 4 memory partitions (downscale factor K=4);
* :data:`RTX_2060` — 30 SMs, 12 memory partitions (downscale factor K=6).

:meth:`GPUConfig.downscale` implements Section III-C: divide SMs and memory
partitions by ``K``; the L2 (one slice per partition), DRAM bandwidth (one
channel per partition) and interconnect shrink automatically because they
are expressed per-partition.  Per-SM resources are untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = ["CacheConfig", "GPUConfig", "MOBILE_SOC", "RTX_2060", "preset"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level.

    ``associativity = 0`` means fully associative (paper's L1D).
    """

    size_bytes: int
    line_bytes: int
    associativity: int
    latency: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise ValueError("cache sizes must be positive")
        if self.size_bytes % self.line_bytes != 0:
            raise ValueError("cache size must be a multiple of the line size")
        lines = self.size_bytes // self.line_bytes
        ways = lines if self.associativity == 0 else self.associativity
        if lines % ways != 0:
            raise ValueError("line count must be divisible by associativity")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        ways = self.num_lines if self.associativity == 0 else self.associativity
        return self.num_lines // ways


@dataclass(frozen=True)
class GPUConfig:
    """A (possibly downscaled) GPU configuration.

    All timing fields are in compute-core cycles; the paper's core,
    interconnect and L2 clocks are equal (1365 MHz) so a single clock domain
    loses nothing, and the faster memory clock is folded into
    ``dram_bytes_per_cycle_per_channel``.
    """

    name: str
    num_sms: int
    num_mem_partitions: int
    registers_per_sm: int
    max_warps_per_sm: int
    warp_size: int = 32
    #: Registers one thread of the ray-gen shader occupies; together with
    #: ``registers_per_sm`` it bounds resident warps (occupancy).
    registers_per_thread: int = 64
    # --- RT unit (per SM) ---
    rt_units_per_sm: int = 1
    rt_max_warps: int = 4
    rt_mshr_size: int = 64
    #: Cycles the RT unit spends on box/triangle tests per traversal step,
    #: on top of the node fetch latency.
    rt_step_cycles: int = 4
    #: Fetch-latency tolerance of the RT unit's traversal pipeline, in
    #: cycles: a ray only stalls for the portion of a node fetch exceeding
    #: this depth.  Sized to cover an uncontended fetch all the way to
    #: DRAM (interconnect + L2 pipeline + DRAM access), so traversal
    #: throughput is set by box-test rate and *bandwidth* behaviour —
    #: stalls appear only when queues build up.  RT cores are engineered
    #: to tolerate memory latency via deep ray queues; without this the
    #: slowest warp's latency chain would dwarf the throughput effects
    #: Zatel's extrapolation relies on.
    rt_fetch_pipeline: int = 360
    #: Treelet-style node prefetching (an *early-stage proposal* in the
    #: spirit of Chou et al., which the paper cites as the kind of change
    #: Zatel evaluates): at each traversal step the RT unit prefetches the
    #: node lines this many steps ahead, hiding part of the fetch latency
    #: at the cost of extra memory traffic.  0 disables the feature
    #: (the Table II baseline).
    rt_prefetch_depth: int = 0
    # --- memory hierarchy ---
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 128, 0, 20)
    )
    #: One L2 slice lives in each memory partition; ``l2_slice`` is that
    #: slice (total L2 = slice * partitions).
    l2_slice: CacheConfig = field(
        default_factory=lambda: CacheConfig(256 * 1024, 128, 16, 160)
    )
    #: Interconnect traversal latency SM -> partition (one way).
    interconnect_latency: int = 20
    #: L2 slice serves one request per this many cycles (bank occupancy).
    l2_service_cycles: int = 2
    #: DRAM first-word latency beyond the L2.
    dram_latency: int = 120
    #: Sustained DRAM bandwidth per channel, bytes per core cycle.  One
    #: channel per memory partition.  16 B/cycle at 1365 MHz ~ 21.8 GB/s,
    #: matching a 14 Gbps GDDR6 16-bit channel.
    dram_bytes_per_cycle_per_channel: int = 16
    # --- pipeline ---
    #: Warp instructions the SM can issue per cycle (per-SM issue width).
    issue_width: int = 1
    #: ALU result latency after issue.
    alu_latency: int = 4
    #: Warp scheduling policy: ``"gto"`` (greedy-then-oldest, Table II) or
    #: ``"lrr"`` (loose round-robin) — ready warps are prioritized by age
    #: or by least-recently-issued respectively.
    warp_scheduler: str = "gto"
    #: Per-SM instruction cache (Table II: 128KB, 16-way, 20 cycles).
    #: Shader code is tiny so this almost always hits; it exists for
    #: Table II completeness and costs its latency on cold fetches.
    icache: CacheConfig = field(
        default_factory=lambda: CacheConfig(128 * 1024, 128, 16, 20)
    )
    # --- telemetry (observability only: never affects any metric) ---
    #: Cycles between telemetry-bus interval snapshots; 0 disables
    #: snapshotting.
    telemetry_interval: int = 0
    #: Record component timeline windows (issue stalls, RT occupancy, L2
    #: bank and DRAM channel contention) for ``.zperf`` export.
    timeline_trace: bool = False

    def __post_init__(self) -> None:
        if self.num_sms <= 0 or self.num_mem_partitions <= 0:
            raise ValueError("SM and memory partition counts must be positive")
        if self.telemetry_interval < 0:
            raise ValueError("telemetry_interval must be >= 0")
        if self.warp_size <= 0 or self.max_warps_per_sm <= 0:
            raise ValueError("warp parameters must be positive")
        if self.warp_scheduler not in ("gto", "lrr"):
            raise ValueError(
                f"unknown warp scheduler {self.warp_scheduler!r}; "
                "use 'gto' or 'lrr'"
            )
        # Zero RT units or issue width, or zero registers per thread,
        # would crash the simulator; zero RT slots would park every warp
        # forever and silently return a truncated run.
        for name in (
            "rt_units_per_sm", "rt_max_warps", "issue_width",
            "registers_per_thread",
        ):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)!r}"
                )

    @property
    def resident_warps_per_sm(self) -> int:
        """Warps an SM can host at once: schedule-slot and register limits."""
        reg_limit = self.registers_per_sm // (
            self.registers_per_thread * self.warp_size
        )
        return max(1, min(self.max_warps_per_sm, reg_limit))

    @property
    def l2_total_bytes(self) -> int:
        return self.l2_slice.size_bytes * self.num_mem_partitions

    @property
    def dram_service_cycles_per_line(self) -> float:
        """Core cycles one channel needs to transfer a cache line."""
        return self.l2_slice.line_bytes / self.dram_bytes_per_cycle_per_channel

    def downscale_factor(self) -> int:
        """The paper's K: gcd of SM count and memory partition count."""
        return math.gcd(self.num_sms, self.num_mem_partitions)

    def downscale(self, k: int) -> "GPUConfig":
        """Downscaled configuration per Section III-C.

        SMs and memory partitions are divided by ``k``; everything expressed
        per-SM or per-partition (L1D, RT units, L2 slice, DRAM channel
        bandwidth) is kept, so total LLC capacity and peak DRAM bandwidth
        shrink by ``k`` automatically — no explicit shared-resource edits,
        exactly as the paper argues.

        Raises:
            ValueError: if ``k`` does not evenly divide both component
                counts (the paper only uses divisors of the gcd).
        """
        if k <= 0:
            raise ValueError("downscale factor must be positive")
        if self.num_sms % k or self.num_mem_partitions % k:
            raise ValueError(
                f"factor {k} does not evenly divide {self.num_sms} SMs / "
                f"{self.num_mem_partitions} partitions"
            )
        return replace(
            self,
            name=f"{self.name}/K{k}",
            num_sms=self.num_sms // k,
            num_mem_partitions=self.num_mem_partitions // k,
        )

    def describe(self) -> str:
        """Multi-line summary in the spirit of the paper's Table II."""
        lines = [
            f"GPU config {self.name}",
            f"  SMs: {self.num_sms}   memory partitions: {self.num_mem_partitions}",
            f"  registers/SM: {self.registers_per_sm}   "
            f"max warps/SM: {self.max_warps_per_sm} "
            f"(resident: {self.resident_warps_per_sm})",
            f"  RT units/SM: {self.rt_units_per_sm} "
            f"(max warps {self.rt_max_warps}, MSHR {self.rt_mshr_size})",
            f"  L1D: {self.l1d.size_bytes // 1024}KB "
            f"{'fully-assoc' if self.l1d.associativity == 0 else f'{self.l1d.associativity}-way'}, "
            f"{self.l1d.latency} cyc",
            f"  L2: {self.l2_total_bytes // 1024}KB total "
            f"({self.l2_slice.size_bytes // 1024}KB/slice, "
            f"{self.l2_slice.associativity}-way, {self.l2_slice.latency} cyc)",
            f"  DRAM: {self.num_mem_partitions} channels x "
            f"{self.dram_bytes_per_cycle_per_channel} B/cyc",
        ]
        return "\n".join(lines)


#: Paper Table II, Mobile SoC column.  3MB L2 over 4 partitions = 768KB/slice.
MOBILE_SOC = GPUConfig(
    name="MobileSoC",
    num_sms=8,
    num_mem_partitions=4,
    registers_per_sm=32768,
    max_warps_per_sm=32,
    l2_slice=CacheConfig(768 * 1024, 128, 16, 160),
)

#: Paper Table II, Turing RTX 2060 column.  3MB L2 over 12 partitions =
#: 256KB/slice.
RTX_2060 = GPUConfig(
    name="RTX2060",
    num_sms=30,
    num_mem_partitions=12,
    registers_per_sm=65536,
    max_warps_per_sm=32,
    l2_slice=CacheConfig(256 * 1024, 128, 16, 160),
)

_PRESETS = {"mobile": MOBILE_SOC, "rtx2060": RTX_2060}


def preset(name: str) -> GPUConfig:
    """Look up a configuration preset by short name (``mobile``/``rtx2060``)."""
    try:
        return _PRESETS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown GPU preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None
