"""The cycle-level GPU timing simulator (Vulkan-Sim stand-in).

Event-driven rather than tick-by-tick: a heap orders warps by their
next-ready cycle, each pop executes one warp op inline against resource
timelines (issue ports, RT-unit slots, L2 banks, DRAM channels), and the
warp is re-queued at its completion cycle.  Oldest-ready-first pop order
approximates Table II's greedy-then-oldest scheduler.  See DESIGN.md for
the fidelity discussion.

:meth:`CycleSimulator.run` is the one event loop.  Its per-pop path is
deliberately lean:

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

The simulator's output is pinned by committed fixtures:
``tests/data/sim_stats_golden.json`` (every statistic and a telemetry
digest per run, including RT-slot pressure and both schedulers with
telemetry on) and ``tests/data/golden_predict.json``.

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

__all__ = ["CycleSimulator", "CoreStats"]

#: Op-kind codes of the pre-compiled dispatch table (ints compare faster
#: than an ``isinstance`` chain and never miss).
OP_TRACE, OP_COMPUTE, OP_STORE = 0, 1, 2


def compile_program(task: WarpTask) -> tuple:
    """Pre-compile a warp's op stream into the event loop's dispatch rows.

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


def _publish(core: CoreStats, instructions, issued, ops, resident_cycles) -> None:
    """Add the event loop's local counter mirrors to the ``core`` group."""
    if instructions:
        core.instructions += instructions
    if issued:
        core.issued_warp_instructions += issued
    if ops:
        core.ops_executed += ops
    if resident_cycles:
        core.warp_resident_cycles += resident_cycles


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
        start_time = time.perf_counter()
        config = self.config
        address_map = self.address_map
        bus = TelemetryBus(
            interval=config.telemetry_interval,
            timeline=config.timeline_trace,
        )
        memory = MemorySubsystem(config, bus)
        sms = [SM(i, config, memory, bus) for i in range(config.num_sms)]
        core = bus.register("core", CoreStats())

        # Distribute warps round-robin across SMs (block scheduler).
        queues: list[deque] = [deque() for _ in sms]
        for i, task in enumerate(warps):
            queues[i % len(sms)].append((task, compile_program(task)))

        # Heap entries: (ready cycle, scheduler priority, warp).  Priority
        # implements the warp scheduler among same-cycle warps: GTO uses
        # the (static) age so older warps win; LRR bumps a warp's priority
        # past its peers every time it issues.  Ages are unique among live
        # warps, so entries never tie and the state is never compared.
        heap: list[tuple[float, int, WarpState]] = []
        heappush, heappop = heapq.heappush, heapq.heappop
        age = 0

        def activate(sm_index: int, cycle: float) -> None:
            """Admit the next queued warp of an SM (if any) at ``cycle``."""
            nonlocal age
            queue = queues[sm_index]
            if queue:
                task, program = queue.popleft()
                state = WarpState(
                    task=task,
                    sm_index=sm_index,
                    ready_cycle=cycle,
                    age=age,
                    program=program,
                )
                state.activated_cycle = cycle
                heappush(heap, (cycle, age, state))
                age += 1

        for sm_index in range(len(sms)):
            for _ in range(config.resident_warps_per_sm):
                activate(sm_index, 0.0)

        lrr = config.warp_scheduler == "lrr"
        alu_latency = config.alu_latency
        window = bus.window
        advance = bus.advance if bus.interval else None
        last_advance = -1.0
        max_completion = 0.0
        # Core counters accumulate in these locals and are published to
        # the stat group right before any telemetry snapshot can observe
        # them (and once at the end), so interval snapshots match
        # per-pop accounting exactly.
        instructions = issued = ops = 0
        resident_cycles = 0.0

        while heap:
            entry = heappop(heap)
            ready = entry[0]
            state = entry[2]
            if advance is not None and ready > last_advance:
                # One boundary check per distinct cycle: same-cycle event
                # bursts share it.  Snapshots must see the counters of
                # every event processed so far, so publish first.
                _publish(core, instructions, issued, ops, resident_cycles)
                instructions = issued = ops = 0
                resident_cycles = 0.0
                advance(ready)
                last_advance = ready
            sm = sms[state.sm_index]
            kind, op, a, b = state.program[state.op_index]
            if lrr:
                # Loose round-robin: a warp that just issued falls behind
                # its same-cycle peers next time.
                state.age = age
                age += 1
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
                if completion > max_completion:
                    max_completion = completion
                resident_cycles += completion - state.activated_cycle
                # The warp's resources free up: admit the next queued warp.
                activate(state.sm_index, completion)
            else:
                heappush(heap, (completion, state.age, state))

        _publish(core, instructions, issued, ops, resident_cycles)
        memory.finalize()
        bus.finalize(max_completion)

        stats = SimulationStats(config_name=config.name)
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
        stats.host_seconds = time.perf_counter() - start_time
        stats.telemetry = bus.record()
        return stats
