"""DRAM channel model with the paper's two bandwidth metrics.

Table I distinguishes:

* **DRAM efficiency** — bandwidth utilization *while requests are pending*
  (data cycles / cycles with at least one request outstanding);
* **Bandwidth utilization** — data cycles / all cycles.

Each memory partition owns one channel.  A channel is a serial resource:
requests occupy it for ``service_cycles`` each, FCFS, after a fixed access
latency.  Queueing time is implicit in the ``busy_until`` timeline.
"""

from __future__ import annotations

from .telemetry import Counter, CycleCounter, NULL_BUS, StatGroup, TelemetryBus

__all__ = ["DRAMChannel", "DRAMStats"]


class DRAMStats(StatGroup):
    """Aggregated counters over one or more channels."""

    requests = Counter("line fetches serviced")
    data_cycles = CycleCounter("cycles the data bus actively transferred")
    pending_cycles = CycleCounter("cycles with at least one request outstanding")

    def efficiency(self) -> float:
        """Data cycles over cycles with work outstanding (<= 1)."""
        if self.pending_cycles <= 0.0:
            return 0.0
        return min(1.0, self.data_cycles / self.pending_cycles)

    def bandwidth_utilization(self, total_cycles: float, channels: int) -> float:
        """Data cycles over the whole run, averaged across ``channels``."""
        if total_cycles <= 0.0 or channels <= 0:
            return 0.0
        return min(1.0, self.data_cycles / (total_cycles * channels))


class DRAMChannel:
    """One DRAM channel behind an L2 slice."""

    def __init__(
        self,
        access_latency: int,
        service_cycles: float,
        bus: TelemetryBus = NULL_BUS,
        component: str = "dram",
    ) -> None:
        if service_cycles <= 0:
            raise ValueError("service_cycles must be positive")
        self.access_latency = access_latency
        self.service_cycles = service_cycles
        self._busy_until = 0.0
        # Union-of-intervals accounting for "cycles with pending requests".
        self._pending_start = 0.0
        self._pending_end = -1.0  # empty interval sentinel
        self._bus = bus
        self.component = component
        self.stats = bus.register(component, DRAMStats())

    def request(self, cycle: float) -> float:
        """Issue a line fetch arriving at ``cycle``; returns completion cycle.

        The request first pays the fixed access latency, then waits for the
        channel data bus (FCFS behind earlier requests), then transfers for
        ``service_cycles``.
        """
        arrival = cycle + self.access_latency
        start = max(arrival, self._busy_until)
        if start > arrival:
            self._bus.window(self.component, "queue_contention", arrival, start)
        completion = start + self.service_cycles
        self._busy_until = completion
        self.stats.requests += 1
        self.stats.data_cycles += self.service_cycles

        # Extend or start the pending-interval union [cycle, completion].
        if cycle > self._pending_end:
            if self._pending_end >= self._pending_start:
                self.stats.pending_cycles += self._pending_end - self._pending_start
            self._pending_start = cycle
            self._pending_end = completion
        else:
            self._pending_end = max(self._pending_end, completion)
        return completion

    def finalize(self) -> None:
        """Close the open pending interval; call once at end of simulation."""
        if self._pending_end >= self._pending_start:
            self.stats.pending_cycles += self._pending_end - self._pending_start
            self._pending_start = 0.0
            self._pending_end = -1.0

    def busy_until(self) -> float:
        """Cycle at which the channel's data bus goes idle."""
        return self._busy_until
