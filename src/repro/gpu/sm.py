"""Streaming multiprocessor model: issue port, L1D, MSHR, RT unit.

The SM is where the three contention effects Zatel's accuracy story depends
on come together:

* the **issue port** bounds compute throughput (1 warp-instruction/cycle,
  Table II's greedy-then-oldest scheduler is approximated by the
  simulator's oldest-ready-first event order);
* the **L1D + MSHR** bound outstanding memory traffic per SM;
* the **RT unit slots** bound concurrent traversals (4 warps, Table II).

When many warps are resident the SM is throughput-bound (cycles scale with
work — the regime where Zatel's linear extrapolation works); with few warps
it is latency-bound (cycles barely shrink when pixels are dropped — the
SPRNG failure mode the paper highlights).
"""

from __future__ import annotations

from .cache import Cache, MSHRTable, line_of
from .config import GPUConfig
from .memory import MemorySubsystem
from .rt_unit import RTUnit
from .telemetry import Counter, NULL_BUS, StatGroup, TelemetryBus
from .warp import StoreOp, TraceOp

__all__ = ["SM", "SMStats"]

#: Base address of shader code in the synthetic address space; each warp-op
#: slot occupies one 16-byte instruction group for icache purposes.
_SHADER_CODE_BASE = 0xC100_0000


class SMStats(StatGroup):
    """Per-SM work counters (beyond the caches' own groups)."""

    mem_accesses = Counter("memory-system lookups issued (work proxy)")


class SM:
    """One streaming multiprocessor."""

    def __init__(
        self,
        index: int,
        config: GPUConfig,
        memory: MemorySubsystem,
        bus: TelemetryBus = NULL_BUS,
    ) -> None:
        self.index = index
        self.config = config
        self.memory = memory
        self._bus = bus
        self.component = f"sm{index}"
        self.l1d = Cache(config.l1d, name=f"l1d[{index}]")
        self.icache = Cache(config.icache, name=f"icache[{index}]")
        bus.register(f"{self.component}.l1d", self.l1d.stats)
        bus.register(f"{self.component}.icache", self.icache.stats)
        self.mshr = MSHRTable(config.rt_mshr_size)
        self.rt_units = [
            RTUnit(
                self,
                config.rt_max_warps,
                config.rt_step_cycles,
                bus=bus,
                component=f"{self.component}.rt{u}",
            )
            for u in range(config.rt_units_per_sm)
        ]
        self._next_issue_free = 0.0
        self._next_rt_unit = 0
        self._l1_latency = config.l1d.latency
        self.stats = bus.register(self.component, SMStats())
        # Warm-slot memo for fetch_instructions: op slots whose icache
        # line is resident and can never be evicted again (see below).
        self._warm_op_slots: set[int] = set()
        # A slot index below this bound touches one of the icache's first
        # ``num_lines`` code lines; consecutive lines map to consecutive
        # sets, so at most ``ways`` of them share a set and eviction is
        # impossible — the memo is then exactly equivalent to replaying
        # the guaranteed hit (counted, zero latency).
        self._warm_slot_limit = config.icache.num_lines * (
            config.icache.line_bytes // 16
        )

    @property
    def mem_accesses(self) -> int:
        """Count of memory-system lookups issued by this SM (work proxy)."""
        return self.stats.mem_accesses

    # ------------------------------------------------------------------
    # instruction fetch
    # ------------------------------------------------------------------

    def fetch_instructions(self, op_slot: int) -> float:
        """Fetch the instruction group for a warp-op slot.

        Returns the extra latency a cold icache line costs (shader code is
        tiny, so after the first warp touches a slot this is zero).  Warm
        slots are memoized: the access is still counted, but the LRU
        bookkeeping is skipped — byte-identical because the line provably
        cannot have been evicted (see ``_warm_slot_limit``).
        """
        if op_slot in self._warm_op_slots:
            self.icache.stats.accesses += 1
            return 0.0
        address = _SHADER_CODE_BASE + op_slot * 16
        line = line_of(address, self.config.icache.line_bytes)
        if op_slot < self._warm_slot_limit:
            self._warm_op_slots.add(op_slot)
        if self.icache.access(line):
            return 0.0
        return float(self.config.icache.latency)

    # ------------------------------------------------------------------
    # issue port
    # ------------------------------------------------------------------

    def reserve_issue(self, cycle: float, issue_cycles: int) -> float:
        """Reserve the issue port for ``issue_cycles``; returns grant cycle."""
        grant = max(cycle, self._next_issue_free)
        if grant > cycle:
            self._bus.window(self.component, "issue_stall", cycle, grant)
        self._next_issue_free = grant + issue_cycles / self.config.issue_width
        return grant

    # ------------------------------------------------------------------
    # memory path (L1 -> MSHR -> shared subsystem)
    # ------------------------------------------------------------------

    def load_lines(self, lines, cycle: float) -> float:
        """Load a collection of distinct lines issued together at ``cycle``.

        Returns the slowest line's data-ready cycle (``-inf`` for no
        lines).  An L1 hit is the inline LRU probe (``move_to_end``, ready
        after the tag-check latency); only a miss calls :meth:`_l1_miss`.
        The lookups are counted once per call rather than once per line:
        telemetry snapshots only read counters between simulator events,
        so they see the same values either way.
        """
        l1d = self.l1d
        lru = l1d.single_set  # hoisted for the fully-associative L1D
        set_of = l1d.set_of if lru is None else None
        hit_ready = cycle + self._l1_latency
        slowest = float("-inf")
        for line in lines:
            if set_of is not None:
                lru = set_of(line)
            if line in lru:
                lru.move_to_end(line)
                ready = hit_ready
            else:
                ready = self._l1_miss(lru, line, hit_ready)
            if ready > slowest:
                slowest = ready
        count = len(lines)
        l1d.stats.accesses += count
        self.stats.mem_accesses += count
        return slowest

    def _l1_miss(self, lru, line_addr: int, miss_cycle: float) -> float:
        """Fill a missed line into L1, then fetch it through the MSHR.

        ``miss_cycle`` is when the miss is detected (after the tag-check
        latency).  An in-flight fetch of the line merges; otherwise the
        request goes to the shared memory subsystem and takes an MSHR
        entry, stalling if the table is full.
        """
        self.l1d.fill(lru, line_addr)
        pending = self.mshr.lookup(line_addr, miss_cycle)
        if pending is not None:
            return max(pending, miss_cycle)
        completion = self.memory.access(line_addr, miss_cycle)
        alloc_cycle = self.mshr.allocate(line_addr, miss_cycle, completion)
        return completion + (alloc_cycle - miss_cycle)

    def mem_access(self, line_addr: int, cycle: float) -> float:
        """Load one line; returns the data-ready cycle."""
        return self.load_lines((line_addr,), cycle)

    def prefetch(self, line_addr: int, cycle: float) -> bool:
        """Issue a non-blocking prefetch for a line.

        The fetch goes through the real memory path (occupying interconnect,
        L2 and DRAM like any miss) and lands in the MSHR, where a later
        demand access merges with it — so a prefetch hides latency without
        teleporting data.  Lines already resident or in flight are skipped.
        Demand L1 hit/miss statistics are untouched (prefetches are not
        demand accesses).

        Returns True if a fetch was actually issued.
        """
        if self.l1d.probe(line_addr):
            return False
        if self.mshr.lookup(line_addr, cycle) is not None:
            return False
        self.stats.mem_accesses += 1
        completion = self.memory.access(line_addr, cycle)
        self.mshr.allocate(line_addr, cycle, completion)
        return True

    # ------------------------------------------------------------------
    # op execution
    # ------------------------------------------------------------------

    def pick_rt_unit(self) -> "RTUnit":
        """Round-robin RT-unit selection for the next traceRayEXT."""
        unit = self.rt_units[self._next_rt_unit]
        self._next_rt_unit = (self._next_rt_unit + 1) % len(self.rt_units)
        return unit

    def make_trace_job(self, unit, op: TraceOp, address_map):
        """Build the traversal job for an op on ``unit`` (slot already held)."""
        return unit.start_job(op, address_map, self.config.l1d.line_bytes)

    def execute_store(self, op: StoreOp, ready: float) -> float:
        """Issue framebuffer stores (write-through, fire-and-forget)."""
        if op.active_lanes() == 0:
            return ready
        grant = self.reserve_issue(ready, 1)
        line_bytes = self.config.l1d.line_bytes
        lines = {
            line_of(addr, line_bytes)
            for addr in op.per_thread_addresses
            if addr is not None
        }
        for line in lines:
            self.memory.store(line, grant)
            self.stats.mem_accesses += 1
        return grant + 1
