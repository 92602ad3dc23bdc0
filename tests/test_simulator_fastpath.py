"""The event loop's dispatch table, RT wait queue and icache memo.

``CycleSimulator.run`` pre-compiles each warp's ops into dispatch rows,
parks warps on a per-RT-unit FIFO when every slot is taken, and memoizes
warm icache slots.  Whole-run output is pinned by
``tests/data/sim_stats_golden.json`` and, on the small test scene, by
``tests/data/fastpath_reference.json`` (recorded from the original
straight-line reference loop); these tests pin the pieces.
"""

from __future__ import annotations

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.gpu import MOBILE_SOC, CycleSimulator, compile_kernel
from repro.gpu.rt_unit import RTUnit
from repro.gpu.simulator import OP_COMPUTE, OP_STORE, OP_TRACE, compile_program
from repro.gpu.warp import ComputeOp, StoreOp, TraceOp, WarpTask
from repro.tracer import FunctionalTracer, RenderSettings


DATA = Path(__file__).parent / "data"
REFERENCE = json.loads((DATA / "fastpath_reference.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "regen_fastpath_reference", DATA / "regen_fastpath_reference.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def _assert_matches_reference(run_id, scene, settings, frame):
    """Every stats field and the telemetry digest equal the reference's."""
    got = regen.simulate(run_id, scene, settings, frame)
    want = REFERENCE["runs"][run_id]
    diffs = {k: (got.get(k), want.get(k)) for k in got.keys() | want.keys()
             if got.get(k) != want.get(k)}
    assert not diffs, f"event loop diverged from reference: {diffs}"


class TestFastPathIdentity:
    def test_reference_covers_run_plan(self):
        assert set(REFERENCE["runs"]) == set(regen.RUNS)

    @pytest.mark.parametrize("scheduler", ["gto", "lrr"])
    def test_byte_identical(self, small_scene, small_frame, small_settings, scheduler):
        _assert_matches_reference(scheduler, small_scene, small_settings, small_frame)

    # LRR with telemetry is pinned by sim_stats_golden.json's telemetry-lrr run.
    @pytest.mark.parametrize("scheduler", ["gto"])
    def test_byte_identical_with_telemetry(
        self, small_scene, small_frame, small_settings, scheduler
    ):
        # Interval snapshots observe counters mid-run: they pin the batched
        # telemetry clock and local-counter flushes, not just the final sums.
        run_id = f"telemetry-{scheduler}"
        assert REFERENCE["runs"][run_id]["telemetry"]["snapshots"]
        assert REFERENCE["runs"][run_id]["telemetry"]["events"]
        _assert_matches_reference(run_id, small_scene, small_settings, small_frame)

    def test_byte_identical_with_prefetch(
        self, small_scene, small_frame, small_settings
    ):
        _assert_matches_reference(
            "prefetch2", small_scene, small_settings, small_frame
        )


def test_empty_workload(small_scene):
    stats = CycleSimulator(MOBILE_SOC, small_scene.addresses).run([])
    assert stats.cycles == 0.0
    assert stats.instructions == 0
    assert stats.work_units == 0


class TestCompileProgram:
    def test_rows_carry_kind_and_derived_scalars(self):
        compute = ComputeOp(per_thread_instructions=(3, 0, 5))
        trace = TraceOp(
            per_thread_nodes=([1, 2], None, [3]),
            per_thread_tris=([], None, [4]),
        )
        store = StoreOp(per_thread_addresses=(0x100, None, 0x140))
        task = WarpTask(warp_id=0, pixels=(), ops=[compute, trace, store])
        rows = compile_program(task)
        assert rows[0] == (OP_COMPUTE, compute, 5, 8)
        assert rows[1] == (OP_TRACE, trace, 2, 2)
        assert rows[2] == (OP_STORE, store, 2, 1)

    def test_masked_store_has_zero_issue_slots(self):
        store = StoreOp(per_thread_addresses=(None, None))
        task = WarpTask(warp_id=0, pixels=(), ops=[store])
        assert compile_program(task)[0][3] == 0

    def test_unknown_op_rejected(self):
        task = WarpTask(warp_id=0, pixels=(), ops=[object()])
        with pytest.raises(TypeError, match="unknown warp op"):
            compile_program(task)


class TestRTWaiterQueue:
    def test_waiters_wake_in_fifo_order(self):
        # The waiters queue is a deque precisely because the simulator pops
        # the head on every slot release; the wake order is load-bearing
        # (it decides which warp's traversal starts first) and must stay
        # first-parked-first-woken.
        unit = RTUnit(sm=None, max_warps=1, step_cycles=4)
        assert unit.try_acquire_slot()
        parked = [f"warp{i}" for i in range(5)]
        for state in parked:
            unit.waiters.append(state)
        woken = [unit.waiters.popleft() for _ in parked]
        assert woken == parked

    def test_fast_loop_uses_single_fifo_per_unit(
        self, small_scene, small_frame, small_settings
    ):
        # One slot per unit parks most trace ops; every parked warp must
        # be woken and run to completion.
        warps = compile_kernel(
            small_frame, small_settings.all_pixels(), small_scene.addresses
        )
        config = replace(MOBILE_SOC, rt_max_warps=1)
        stats = CycleSimulator(config, small_scene.addresses).run(warps)
        assert stats.instructions == sum(w.instruction_count() for w in warps)
        assert stats.cycles > 0


class TestIcacheWarmSlotMemo:
    def test_memo_counts_accesses_like_real_hits(self, small_scene):
        from repro.gpu.memory import MemorySubsystem
        from repro.gpu.sm import SM

        memory = MemorySubsystem(MOBILE_SOC)
        sm = SM(0, MOBILE_SOC, memory)
        # Cold fetch pays the icache latency, the warm replays are free
        # but still counted (miss-rate telemetry must not drift).
        assert sm.fetch_instructions(0) == float(MOBILE_SOC.icache.latency)
        before = sm.icache.stats.accesses
        for _ in range(3):
            assert sm.fetch_instructions(0) == 0.0
        assert sm.icache.stats.accesses == before + 3
        assert 0 in sm._warm_op_slots

    def test_slots_beyond_guarantee_bound_not_memoized(self, small_scene):
        from repro.gpu.memory import MemorySubsystem
        from repro.gpu.sm import SM

        memory = MemorySubsystem(MOBILE_SOC)
        sm = SM(0, MOBILE_SOC, memory)
        beyond = sm._warm_slot_limit
        sm.fetch_instructions(beyond)
        assert beyond not in sm._warm_op_slots


def test_trace_smoke_regression(small_scene):
    """Timeline trace still renders from a simulator run (zperf shape)."""
    settings = RenderSettings(width=16, height=16, samples_per_pixel=1, seed=3)
    frame = FunctionalTracer(small_scene, settings).trace_frame()
    warps = compile_kernel(frame, settings.all_pixels(), small_scene.addresses)
    config = replace(MOBILE_SOC, telemetry_interval=100, timeline_trace=True)
    stats = CycleSimulator(config, small_scene.addresses).run(warps)
    assert stats.telemetry is not None
    assert stats.telemetry.snapshots
    assert stats.telemetry.events
