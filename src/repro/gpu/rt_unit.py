"""Ray-tracing accelerator unit model.

Each SM hosts ``rt_units_per_sm`` RT units (Table II: 1) with
``rt_max_warps`` concurrent warp slots and an MSHR bounding outstanding node
fetches.  A warp's :class:`~repro.gpu.warp.TraceOp` is processed as a
sequence of lock-step *traversal steps*: at step *s* every lane still alive
fetches its *s*-th BVH node; the step's latency is the slowest fetch plus a
fixed box/intersection-test cost.  Triangle tests in the leaves follow the
same pattern over triangle records.

Steps execute as individual simulator events (:class:`TraversalJob`), so
concurrent warps' memory traffic interleaves in time — vital for modelling
bandwidth contention instead of falsely serializing whole traversals.

A job replays its op from a lazy *step schedule*: each lane's node (then
triangle) indices — zero-copy views of the frame's record buffers, taken
when the job starts — map to cache-line addresses through one memo per
``(AddressMap, line_bytes)``, and ``zip_longest`` over the lanes yields one
step's lines at a time (``None`` for a lane that has finished).  The step
deduplicates its lines in lane first-touch order and hands them to
:meth:`~repro.gpu.sm.SM.load_lines`, which resolves L1 hits inline and only
walks the MSHR/L2/DRAM path on a miss.

Two properties of this model carry the paper's story:

* **Divergence costs bandwidth** — a step fetches the *distinct* cache
  lines its lanes need, so coherent warps (coarse-grained groups, tall
  section blocks) touch few lines per step while divergent warps
  (fine-grained chunks) touch many.
* **RT efficiency** — Table I's "average # of active rays per warp" is the
  mean lane-liveness over traversal steps, measured here.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import chain, zip_longest

from .telemetry import Counter, Histogram, NULL_BUS, StatGroup, TelemetryBus
from .warp import TraceOp

__all__ = ["RTUnit", "RTStats", "TraversalJob"]

#: Histogram buckets for per-step live-lane counts: 0..32 lanes inclusive.
ACTIVE_LANE_BUCKETS = 33


class RTStats(StatGroup):
    """Counters for Table I's RT-unit metrics."""

    warps_processed = Counter("traversal jobs started")
    traversal_steps = Counter("lock-step node steps executed")
    active_ray_steps = Counter("sum over steps of live-lane count")
    node_fetches = Counter("distinct node cache lines fetched")
    tri_fetches = Counter("distinct triangle cache lines fetched")
    prefetches_issued = Counter("treelet prefetches sent to memory")
    active_lane_hist = Histogram(
        ACTIVE_LANE_BUCKETS, "node steps by live-lane count (bucket = lanes)"
    )

    def average_efficiency(self) -> float:
        """Average active rays per warp per traversal step."""
        if self.traversal_steps == 0:
            return 0.0
        return self.active_ray_steps / self.traversal_steps


class RTUnit:
    """One RT unit: bounded warp slots dispatching step-wise traversal jobs.

    Slot arbitration is cooperative with the simulator: a warp that finds
    no free slot parks itself on :attr:`waiters`; when a job completes, the
    simulator releases the slot and wakes the queue head.
    """

    def __init__(
        self,
        sm,
        max_warps: int,
        step_cycles: int,
        bus: TelemetryBus = NULL_BUS,
        component: str = "rt",
    ) -> None:
        self._sm = sm  # back-reference for the L1/L2 access path
        self.max_warps = max_warps
        self.free_slots = max_warps
        #: Warps waiting for a slot (FIFO of WarpState, managed by the
        #: simulator's event loop).  A deque: the head is popped on every
        #: slot release, and ``list.pop(0)`` is O(n) in queue depth.
        self.waiters: deque = deque()
        self.step_cycles = step_cycles
        self._bus = bus
        self.component = component
        self.stats = bus.register(component, RTStats())

    def try_acquire_slot(self) -> bool:
        """Claim a slot if one is free."""
        if self.free_slots > 0:
            self.free_slots -= 1
            return True
        return False

    def release_slot(self) -> None:
        """Return a slot to the pool (the simulator then wakes waiters)."""
        if self.free_slots >= self.max_warps:
            raise RuntimeError("RT unit slot over-release")
        self.free_slots += 1

    def start_job(
        self, op: TraceOp, address_map, line_bytes: int
    ) -> "TraversalJob":
        """Create the stepping job for a warp's traversal."""
        self.stats.warps_processed += 1
        return TraversalJob(self, op, address_map, line_bytes)


class _LineMemo(dict):
    """Entity index -> line-aligned address, computed on first lookup."""

    __slots__ = ("_address", "_line_bytes")

    def __init__(self, address, line_bytes: int) -> None:
        super().__init__()
        self._address = address
        self._line_bytes = line_bytes

    def __missing__(self, index: int) -> int:
        addr = self._address(index)
        line = self[index] = addr - addr % self._line_bytes
        return line


@lru_cache(maxsize=8)
def line_memos(address_map, line_bytes: int) -> tuple[_LineMemo, _LineMemo]:
    """The (node, triangle) index -> line memos for one address layout.

    Shared by every job and simulation using the same layout and line
    size; they hold only the indices traversals actually touch.
    """
    return (
        _LineMemo(address_map.node_address, line_bytes),
        _LineMemo(address_map.triangle_address, line_bytes),
    )


class TraversalJob:
    """One warp's in-flight traversal, advanced one lock-step at a time.

    The simulator calls :meth:`advance` once per event; each call performs
    one traversal step's memory fetches and returns the cycle at which the
    step's results are available.  ``done`` flips after the final step.

    Steps come from a lazy schedule: per lane, ``map`` over the memoized
    index -> line lookup; ``zip_longest`` across lanes then yields one
    tuple per step with ``None`` for finished lanes.  Node steps run
    first, then triangle steps.
    """

    def __init__(
        self, unit: RTUnit, op: TraceOp, address_map, line_bytes: int
    ) -> None:
        self.unit = unit
        node_lines, tri_lines = line_memos(address_map, line_bytes)
        node_lists, tri_lists = op.lane_records()
        self._schedule = chain(
            zip_longest(*[map(node_lines.__getitem__, n) for n in node_lists]),
            zip_longest(*[map(tri_lines.__getitem__, t) for t in tri_lists]),
        )
        self._node_steps = max(map(len, node_lists), default=0)
        self._steps = self._node_steps + max(map(len, tri_lists), default=0)
        self._step = 0
        self.done = self._steps == 0
        # Hoisted per-step constants (advance() is the simulator's hottest
        # function; attribute chains through unit/sm/config add up).
        config = unit._sm.config
        self._prefetch_depth = config.rt_prefetch_depth
        self._pipeline_depth = config.rt_fetch_pipeline
        # Prefetch looks ahead per lane, past the schedule's current step.
        self._node_lists = node_lists
        self._node_lines = node_lines

    def advance(self, cycle: float) -> float:
        """Run the next traversal step starting at ``cycle``.

        Returns the step's completion cycle; sets :attr:`done` when this
        was the last step.
        """
        if self.done:
            raise RuntimeError("advance() called on a finished traversal job")
        unit = self.unit
        sm = unit._sm
        stats = unit.stats
        lanes = next(self._schedule)
        # Distinct lines in lane first-touch order (lanes converging on
        # the same node fetch it once).  The memory subsystem is
        # stateful, so the dedup must not reorder the fetches.
        lines = dict.fromkeys(lanes)
        lines.pop(None, None)
        if self._step < self._node_steps:
            active = len(lanes) - lanes.count(None)
            stats.traversal_steps += 1
            stats.active_ray_steps += active
            stats.active_lane_hist[
                min(active, ACTIVE_LANE_BUCKETS - 1)
            ] += 1
            stats.node_fetches += len(lines)
        else:
            stats.tri_fetches += len(lines)
        slowest = sm.load_lines(lines, cycle)

        # Treelet-style prefetch: warm the lines the rays will need
        # ``rt_prefetch_depth`` steps from now (0 disables).  Prefetches
        # go through the real memory path and land in the MSHR, so later
        # demand fetches merge with them.
        depth = self._prefetch_depth
        if depth > 0:
            ahead = self._step + depth
            if ahead < self._node_steps:
                node_lines = self._node_lines
                for nodes in self._node_lists:
                    if ahead < len(nodes):
                        if sm.prefetch(node_lines[nodes[ahead]], cycle):
                            stats.prefetches_issued += 1

        # The RT unit's fetch pipeline hides cache-hit latency: a step only
        # stalls the warp for the portion of its slowest fetch exceeding
        # the pipeline depth (DRAM fills, queueing storms).  Stalling the
        # *warp clock* matters: the next steps' fetches then issue after
        # the stall, so a cold-start bandwidth storm delays a warp once
        # instead of taxing its every subsequent fetch.  Rounding is
        # monotone, so the slowest line also gives the largest excess.
        extra = slowest - cycle - self._pipeline_depth
        stall = extra if extra > 0.0 else 0.0
        self._step += 1
        self.done = self._step >= self._steps
        completion = cycle + unit.step_cycles + stall
        unit._bus.window(unit.component, "rt_busy", cycle, completion)
        return completion
