"""The cycle-level GPU timing simulator (Vulkan-Sim stand-in).

Event-driven rather than tick-by-tick: a heap orders warps by their
next-ready cycle, each pop executes one warp op inline against resource
timelines (issue ports, RT-unit slots, L2 banks, DRAM channels), and the
warp is re-queued at its completion cycle.  Oldest-ready-first pop order
approximates Table II's greedy-then-oldest scheduler.  See DESIGN.md for
the fidelity discussion.

The event loop lives in :class:`SimEngine`, a *resumable* engine: the
default serial backend drives it to completion in one call, while the
sharded parallel backend (:mod:`repro.gpu.parallel`) steps it epoch by
epoch.  The engine's per-pop path is deliberately lean:

* each warp's op stream is pre-compiled into a dispatch table of
  ``(kind, op, scalar, scalar)`` rows, so no ``isinstance`` chain or
  per-pop lane reduction runs;
* heap entries are ``(cycle, age, state)`` — ages are globally unique
  among live warps under both schedulers (GTO never reassigns them, LRR
  reassigns from the same monotonic counter), so no tiebreak sequence
  number is needed and the state is never compared;
* the telemetry clock advances once per distinct event cycle (same-cycle
  bursts share one boundary check), and a disabled bus's ``advance`` /
  ``window`` are no-op functions.

:meth:`CycleSimulator.run_reference` preserves the original
straight-line *event loop*; both produce byte-identical statistics
(the A/B suite in ``tests/test_simulator_fastpath.py``).  The two loops
share the components — ``SM``, ``RTUnit``, ``Cache``, ``MSHRTable`` and
the memory subsystem — so the A/B suite and the simulator benchmark's
``fast_speedup`` only see the event loop.  The components' output is
pinned by committed fixtures instead: ``tests/data/sim_stats_golden.json``
(every statistic and a telemetry digest per run) and
``tests/data/golden_predict.json``.

Usage::

    warps = compile_kernel(frame, pixels, scene.addresses, selected)
    stats = CycleSimulator(MOBILE_SOC, scene.addresses).run(warps)
"""

from __future__ import annotations

import heapq
import time
from collections import deque

from ..scene.scene import AddressMap
from .config import GPUConfig
from .memory import MemorySubsystem
from .rt_unit import RTStats
from .sm import SM
from .stats import SimulationStats
from .telemetry import Counter, CycleCounter, StatGroup, TelemetryBus
from .warp import ComputeOp, StoreOp, TraceOp, WarpState, WarpTask

__all__ = ["CycleSimulator", "CoreStats", "SimEngine", "make_simulator"]

#: Op-kind codes of the pre-compiled dispatch table (ints compare faster
#: than an ``isinstance`` chain and never miss).
OP_TRACE, OP_COMPUTE, OP_STORE = 0, 1, 2


def compile_program(task: WarpTask) -> tuple:
    """Pre-compile a warp's op stream into the fast loop's dispatch rows.

    Each row is ``(kind, op, a, b)`` where the two scalars are the only
    derived quantities the event loop needs, precomputed once instead of
    re-reduced over the 32-lane tuples on every pop:

    * ``OP_TRACE``:   ``a`` = active lanes, ``b`` = instruction count;
    * ``OP_COMPUTE``: ``a`` = issue cycles, ``b`` = instruction count;
    * ``OP_STORE``:   ``a`` = instruction count, ``b`` = issue slots (0/1).
    """
    rows = []
    for op in task.ops:
        if isinstance(op, TraceOp):
            rows.append((OP_TRACE, op, op.active_lanes(), op.instruction_count()))
        elif isinstance(op, ComputeOp):
            rows.append(
                (OP_COMPUTE, op, op.issue_cycles(), op.instruction_count())
            )
        elif isinstance(op, StoreOp):
            rows.append(
                (OP_STORE, op, op.instruction_count(), 1 if op.active_lanes() else 0)
            )
        else:  # pragma: no cover - op types are closed
            raise TypeError(f"unknown warp op {type(op).__name__}")
    return tuple(rows)


class CoreStats(StatGroup):
    """Whole-GPU event-loop counters (the bus's ``core`` component)."""

    instructions = Counter("thread-instructions executed")
    issued_warp_instructions = Counter("warp-instruction issue slots used")
    ops_executed = Counter("warp ops completed (work proxy)")
    warp_resident_cycles = CycleCounter(
        "integral of resident warps over time"
    )


class SimEngine:
    """Resumable event-driven core of the cycle simulator.

    Owns the per-run component state (telemetry bus, memory subsystem,
    SM array, warp queues, event heap) and exposes :meth:`run_until` so a
    driver can either run to completion (serial backend) or step in
    fixed-cycle epochs (sharded backend).  Repeated ``run_until`` calls
    continue exactly where the previous one stopped.
    """

    def __init__(
        self,
        config: GPUConfig,
        address_map: AddressMap,
        warps: list[WarpTask],
        sm_of_task: list[int] | None = None,
    ) -> None:
        self._start_time = time.perf_counter()
        self.config = config
        self.address_map = address_map
        self.warps = warps
        bus = TelemetryBus(
            interval=config.telemetry_interval,
            timeline=config.timeline_trace,
        )
        self.bus = bus
        self.memory = MemorySubsystem(config, bus)
        self.sms = [SM(i, config, self.memory, bus) for i in range(config.num_sms)]
        self.core = bus.register("core", CoreStats())

        # Distribute warps across SMs (block scheduler): round-robin by
        # default; an explicit placement lets the sharded backend
        # reproduce the whole-GPU round-robin on an SM subset.
        self.queues: list[deque] = [deque() for _ in self.sms]
        for i, task in enumerate(warps):
            sm_index = (
                sm_of_task[i] if sm_of_task is not None else i % len(self.sms)
            )
            self.queues[sm_index].append((task, compile_program(task)))

        # Heap entries: (ready cycle, scheduler priority, warp).  Priority
        # implements the warp scheduler among same-cycle warps: GTO uses
        # the (static) age so older warps win; LRR bumps a warp's priority
        # past its peers every time it issues.  Ages are unique among live
        # warps, so entries never tie and the state is never compared.
        self.heap: list[tuple[float, int, WarpState]] = []
        self.age = 0
        self.lrr = config.warp_scheduler == "lrr"
        self.max_completion = 0.0

        # Core counters accumulate in locals inside the loop and flush to
        # the stat group right before any telemetry snapshot can observe
        # them (and at finish), keeping interval snapshots byte-identical
        # to the per-pop accounting of the reference loop.
        self._instructions = 0
        self._issued = 0
        self._ops = 0
        self._resident_cycles = 0.0
        self._advance = bus.advance if bus.interval else None
        self._last_advance = -1.0

        resident = config.resident_warps_per_sm
        for sm_index in range(len(self.sms)):
            for _ in range(resident):
                self._activate(sm_index, 0.0)

    # ------------------------------------------------------------------

    def _activate(self, sm_index: int, cycle: float) -> None:
        """Admit the next queued warp of an SM (if any) at ``cycle``."""
        queue = self.queues[sm_index]
        if queue:
            task, program = queue.popleft()
            state = WarpState(
                task=task,
                sm_index=sm_index,
                ready_cycle=cycle,
                age=self.age,
                program=program,
            )
            state.activated_cycle = cycle
            heapq.heappush(self.heap, (cycle, self.age, state))
            self.age += 1

    def _flush_core(self) -> None:
        """Publish the loop's local counter mirrors to the stat group."""
        core = self.core
        if self._instructions:
            core.instructions += self._instructions
            self._instructions = 0
        if self._issued:
            core.issued_warp_instructions += self._issued
            self._issued = 0
        if self._ops:
            core.ops_executed += self._ops
            self._ops = 0
        if self._resident_cycles:
            core.warp_resident_cycles += self._resident_cycles
            self._resident_cycles = 0.0

    @property
    def done(self) -> bool:
        """Whether every warp has retired (no pending events remain)."""
        return not self.heap

    def next_event_cycle(self) -> float:
        """Ready cycle of the earliest pending event (``inf`` when done)."""
        return self.heap[0][0] if self.heap else float("inf")

    # ------------------------------------------------------------------

    def run_until(self, limit: float) -> None:
        """Process every event with a ready cycle strictly below ``limit``.

        Pass ``float("inf")`` to drain the simulation; the sharded
        backend passes successive epoch boundaries.  Events pushed at or
        past the limit stay queued for the next call.
        """
        heap = self.heap
        heappush, heappop = heapq.heappush, heapq.heappop
        sms = self.sms
        lrr = self.lrr
        alu_latency = self.config.alu_latency
        address_map = self.address_map
        window = self.bus.window
        advance = self._advance
        instructions = self._instructions
        issued = self._issued
        ops = self._ops

        while heap and heap[0][0] < limit:
            entry = heappop(heap)
            ready = entry[0]
            state = entry[2]
            if advance is not None and ready > self._last_advance:
                # One boundary check per distinct cycle: same-cycle event
                # bursts share it.  Snapshots must see the counters of
                # every event processed so far, so flush first.
                self._instructions, self._issued, self._ops = (
                    instructions, issued, ops,
                )
                self._flush_core()
                instructions = issued = ops = 0
                advance(ready)
                self._last_advance = ready
            sm = sms[state.sm_index]
            kind, op, a, b = state.program[state.op_index]
            if lrr:
                # Loose round-robin: a warp that just issued falls behind
                # its same-cycle peers next time.
                state.age = self.age
                self.age += 1
            if kind == OP_COMPUTE:
                # a = issue cycles, b = instruction count
                if a == 0:  # fully masked (shouldn't normally happen)
                    completion = ready
                else:
                    fetch = sm.fetch_instructions(state.op_index)
                    grant = sm.reserve_issue(ready + fetch, a)
                    completion = grant + a + alu_latency
                instructions += b
                issued += a
                ops += 1
            elif kind == OP_TRACE:
                # a = active lanes, b = instruction count
                if state.job is None:
                    # First attempt (or woken after parking): claim a slot.
                    if not state.trace_issued:
                        if a == 0:
                            # Fully masked op: completes in zero time.
                            state.op_index += 1
                            heappush(heap, (ready, state.age, state))
                            continue
                        ready = sm.reserve_issue(ready, 1) + 1
                        state.trace_issued = True
                        state.rt_unit = sm.pick_rt_unit()
                        instructions += b
                        issued += 1
                        ops += 1
                    unit = state.rt_unit
                    if not unit.try_acquire_slot():
                        state.parked_cycle = ready
                        unit.waiters.append(state)  # parked; woken on release
                        continue
                    job = sm.make_trace_job(unit, op, address_map)
                    if not job.done:
                        state.job = job
                        heappush(heap, (ready, state.age, state))
                        continue
                    # Degenerate zero-step traversal: free the slot now.
                    unit.release_slot()
                    if unit.waiters:
                        woken = unit.waiters.popleft()
                        window(
                            unit.component, "rt_wait",
                            woken.parked_cycle, ready,
                        )
                        heappush(heap, (ready, woken.age, woken))
                    completion = ready
                    state.trace_issued = False
                    state.rt_unit = None
                else:
                    completion = state.job.advance(ready)
                    unit = state.job.unit
                    if not state.job.done:
                        heappush(heap, (completion, state.age, state))
                        continue
                    state.job = None
                    state.trace_issued = False
                    state.rt_unit = None
                    unit.release_slot()
                    # Wake one parked warp; it re-attempts acquisition.
                    if unit.waiters:
                        woken = unit.waiters.popleft()
                        window(
                            unit.component, "rt_wait",
                            woken.parked_cycle, completion,
                        )
                        heappush(heap, (completion, woken.age, woken))
            else:  # OP_STORE: a = instruction count, b = issue slots
                completion = sm.execute_store(op, ready)
                instructions += a
                issued += b
                ops += 1
            state.op_index += 1
            state.ready_cycle = completion
            if state.op_index >= len(state.program):
                if completion > self.max_completion:
                    self.max_completion = completion
                self._resident_cycles += completion - state.activated_cycle
                # The warp's resources free up: admit the next queued warp.
                self._activate(state.sm_index, completion)
            else:
                heappush(heap, (completion, state.age, state))

        self._instructions = instructions
        self._issued = issued
        self._ops = ops

    # ------------------------------------------------------------------

    def finish(self) -> SimulationStats:
        """Close the run and collect its statistics.

        Call exactly once, after :attr:`done` is true.
        """
        config = self.config
        self._flush_core()
        core = self.core
        self.memory.finalize()
        self.bus.finalize(self.max_completion)

        stats = SimulationStats(config_name=config.name)
        stats.cycles = self.max_completion
        stats.instructions = core.instructions
        stats.issued_warp_instructions = core.issued_warp_instructions
        stats.warp_resident_cycles = core.warp_resident_cycles
        stats.warp_size = config.warp_size
        stats.sm_count = config.num_sms
        stats.resident_limit = config.resident_warps_per_sm
        stats.warps = len(self.warps)
        stats.pixels_traced = sum(t.live_pixels for t in self.warps)
        stats.pixels_filtered = sum(t.filtered_pixels for t in self.warps)

        for sm in self.sms:
            stats.l1d_accesses += sm.l1d.stats.accesses
            stats.l1d_misses += sm.l1d.stats.misses
        l2 = self.memory.l2_stats()
        stats.l2_accesses = l2.accesses
        stats.l2_misses = l2.misses

        rt_total = RTStats.merged(
            unit.stats for sm in self.sms for unit in sm.rt_units
        )
        stats.rt_traversal_steps = rt_total.traversal_steps
        stats.rt_active_ray_steps = rt_total.active_ray_steps

        dram = self.memory.dram_stats()
        stats.dram_requests = dram.requests
        stats.dram_data_cycles = dram.data_cycles
        stats.dram_pending_cycles = dram.pending_cycles
        stats.dram_channels = config.num_mem_partitions

        stats.work_units = (
            core.ops_executed
            + sum(sm.mem_accesses for sm in self.sms)
            + rt_total.traversal_steps
        )
        stats.sim_backend = "serial"
        stats.host_seconds = time.perf_counter() - self._start_time
        stats.telemetry = self.bus.record()
        return stats


class CycleSimulator:
    """Simulates one kernel launch on one GPU configuration."""

    def __init__(self, config: GPUConfig, address_map: AddressMap) -> None:
        self.config = config
        self.address_map = address_map

    def run(self, warps: list[WarpTask]) -> SimulationStats:
        """Execute the warp tasks; returns the run's statistics.

        A fresh memory subsystem and SM array are created per run, so
        repeated calls are independent — this is what makes Zatel's
        per-group instances cold-share nothing (the L2 bias of §III-G).
        A fresh telemetry bus is created per run too: components register
        their stat groups at construction and the event loop drives the
        interval-snapshot clock.
        """
        engine = SimEngine(self.config, self.address_map, warps)
        engine.run_until(float("inf"))
        return engine.finish()

    def run_reference(self, warps: list[WarpTask]) -> SimulationStats:
        """The original straight-line event loop, kept as the oracle.

        Byte-identical to :meth:`run` (asserted by the fast-path A/B
        tests).  It drives the same ``SM``/``RTUnit``/``Cache``/``MSHRTable``
        objects as :meth:`run`, so it checks and times the event loop
        only; a memory-path change moves both loops alike.
        """
        start_time = time.perf_counter()
        config = self.config
        bus = TelemetryBus(
            interval=config.telemetry_interval,
            timeline=config.timeline_trace,
        )
        memory = MemorySubsystem(config, bus)
        sms = [SM(i, config, memory, bus) for i in range(config.num_sms)]
        core = bus.register("core", CoreStats())

        # Distribute warps round-robin across SMs (block scheduler).
        queues: list[deque[WarpTask]] = [deque() for _ in sms]
        for i, task in enumerate(warps):
            queues[i % len(sms)].append(task)

        heap: list[tuple[float, int, int, WarpState]] = []
        age = 0
        push_seq = 0
        lrr = config.warp_scheduler == "lrr"

        def push(state: WarpState, cycle: float) -> None:
            nonlocal push_seq
            heapq.heappush(heap, (cycle, state.age, push_seq, state))
            push_seq += 1

        def activate(sm_index: int, cycle: float) -> None:
            nonlocal age
            if queues[sm_index]:
                task = queues[sm_index].popleft()
                state = WarpState(
                    task=task, sm_index=sm_index, ready_cycle=cycle, age=age
                )
                state.activated_cycle = cycle
                push(state, cycle)
                age += 1

        resident = config.resident_warps_per_sm
        for sm_index in range(len(sms)):
            for _ in range(resident):
                activate(sm_index, 0.0)

        stats = SimulationStats(config_name=config.name)
        max_completion = 0.0

        while heap:
            ready, _, _, state = heapq.heappop(heap)
            # Heap pops are nondecreasing in cycle, so boundary crossings
            # checked here capture all work completed before the boundary.
            bus.advance(ready)
            sm = sms[state.sm_index]
            op = state.next_op()
            if lrr:
                # Loose round-robin: a warp that just issued falls behind
                # its same-cycle peers next time.
                state.age = age
                age += 1
            if isinstance(op, TraceOp):
                if state.job is None:
                    # First attempt (or woken after parking): claim a slot.
                    if not state.trace_issued:
                        if op.active_lanes() == 0:
                            # Fully masked op: completes in zero time.
                            state.op_index += 1
                            push(state, ready)
                            continue
                        ready = sm.reserve_issue(ready, 1) + 1
                        state.trace_issued = True
                        state.rt_unit = sm.pick_rt_unit()
                        core.instructions += op.instruction_count()
                        core.issued_warp_instructions += 1
                        core.ops_executed += 1
                    unit = state.rt_unit
                    if not unit.try_acquire_slot():
                        state.parked_cycle = ready
                        unit.waiters.append(state)  # parked; woken on release
                        continue
                    job = sm.make_trace_job(unit, op, self.address_map)
                    if not job.done:
                        state.job = job
                        push(state, ready)
                        continue
                    # Degenerate zero-step traversal: free the slot now.
                    unit.release_slot()
                    if unit.waiters:
                        woken = unit.waiters.popleft()
                        bus.window(
                            unit.component, "rt_wait",
                            woken.parked_cycle, ready,
                        )
                        push(woken, ready)
                    completion = ready
                    state.trace_issued = False
                    state.rt_unit = None
                else:
                    completion = state.job.advance(ready)
                    unit = state.job.unit
                    if not state.job.done:
                        push(state, completion)
                        continue
                    state.job = None
                    state.trace_issued = False
                    state.rt_unit = None
                    unit.release_slot()
                    # Wake one parked warp; it re-attempts acquisition.
                    if unit.waiters:
                        woken = unit.waiters.popleft()
                        bus.window(
                            unit.component, "rt_wait",
                            woken.parked_cycle, completion,
                        )
                        push(woken, completion)
            elif isinstance(op, ComputeOp):
                completion = sm.execute_compute(op, ready, op_slot=state.op_index)
                core.instructions += op.instruction_count()
                core.issued_warp_instructions += op.issue_cycles()
                core.ops_executed += 1
            elif isinstance(op, StoreOp):
                completion = sm.execute_store(op, ready)
                core.instructions += op.instruction_count()
                core.issued_warp_instructions += 1 if op.active_lanes() else 0
                core.ops_executed += 1
            else:  # pragma: no cover - op types are closed
                raise TypeError(f"unknown warp op {type(op).__name__}")
            state.op_index += 1
            state.ready_cycle = completion
            if state.done():
                if completion > max_completion:
                    max_completion = completion
                core.warp_resident_cycles += completion - state.activated_cycle
                # The warp's resources free up: admit the next queued warp.
                activate(state.sm_index, completion)
            else:
                push(state, completion)

        memory.finalize()
        bus.finalize(max_completion)
        stats.cycles = max_completion
        stats.instructions = core.instructions
        stats.issued_warp_instructions = core.issued_warp_instructions
        stats.warp_resident_cycles = core.warp_resident_cycles
        stats.warp_size = config.warp_size
        stats.sm_count = config.num_sms
        stats.resident_limit = config.resident_warps_per_sm
        stats.warps = len(warps)
        stats.pixels_traced = sum(t.live_pixels for t in warps)
        stats.pixels_filtered = sum(t.filtered_pixels for t in warps)

        for sm in sms:
            stats.l1d_accesses += sm.l1d.stats.accesses
            stats.l1d_misses += sm.l1d.stats.misses
        l2 = memory.l2_stats()
        stats.l2_accesses = l2.accesses
        stats.l2_misses = l2.misses

        rt_total = RTStats.merged(
            unit.stats for sm in sms for unit in sm.rt_units
        )
        stats.rt_traversal_steps = rt_total.traversal_steps
        stats.rt_active_ray_steps = rt_total.active_ray_steps

        dram = memory.dram_stats()
        stats.dram_requests = dram.requests
        stats.dram_data_cycles = dram.data_cycles
        stats.dram_pending_cycles = dram.pending_cycles
        stats.dram_channels = config.num_mem_partitions

        stats.work_units = (
            core.ops_executed
            + sum(sm.mem_accesses for sm in sms)
            + rt_total.traversal_steps
        )
        stats.sim_backend = "serial"
        stats.host_seconds = time.perf_counter() - start_time
        stats.telemetry = bus.record()
        return stats


def make_simulator(config: GPUConfig, address_map: AddressMap):
    """The simulator :attr:`~repro.gpu.config.GPUConfig.sim_backend` selects.

    ``"serial"`` (the default) returns the exact :class:`CycleSimulator`;
    ``"sharded"`` returns a :class:`~repro.gpu.parallel.
    ShardedCycleSimulator`, which trades bounded timing drift for
    epoch-synchronized parallel shards.  Both expose ``run(warps)``.
    """
    if config.sim_backend == "sharded":
        from .parallel import ShardedCycleSimulator

        return ShardedCycleSimulator(config, address_map)
    return CycleSimulator(config, address_map)
