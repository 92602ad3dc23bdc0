"""Unified telemetry bus: typed instruments, interval stats, timelines.

Every GPU component (caches, RT units, DRAM channels, the event loop
itself) emits statistics through one substrate instead of bespoke stat
classes with hand-written merge code:

* **Instruments** are class-level declarations on a :class:`StatGroup`
  subclass — :class:`Counter`, :class:`CycleCounter`, :class:`MaxGauge`,
  :class:`Histogram`, plus the derived :class:`RatioGauge` — each
  carrying its merge semantics (sum / max / element-wise sum /
  weighted mean).  :meth:`StatGroup.merge` is then *generic*: it folds
  another instance in according to the declared semantics, replacing the
  per-class ``merge`` methods the simulator used to hand-maintain.

* The **metric registry** (:data:`METRIC_SPECS`) is the single table of
  derived Table-I/extended metrics: canonical order, description, and
  the extrapolation/combination kind (absolute / rate / throughput) that
  ``gpu.stats``, ``core.combine``, ``core.extrapolate`` and
  ``harness.metrics`` previously each encoded separately.

* The **telemetry bus** (:class:`TelemetryBus`) registers each
  component's stat group under a hierarchical name (``sm0.l1d``,
  ``dram.2``), captures cumulative **interval snapshots** every N cycles
  (N from ``GPUConfig.telemetry_interval``), and coalesces contention
  **timeline windows** (issue stalls, RT-unit occupancy, L2-bank and
  DRAM-channel queueing) into :class:`TimelineEvent`\\ s.  The per-run
  result is a picklable :class:`TelemetryRecord` attached to
  ``SimulationStats.telemetry`` and exportable as a ``.zperf``
  JSON-lines file (:func:`export_zperf` / :func:`load_zperf`).

Telemetry is off by default (interval 0, no timeline) and is designed so
that enabling it never changes any metric: instruments accumulate the
exact arithmetic the legacy stat classes performed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "KIND_ABSOLUTE",
    "KIND_RATE",
    "KIND_THROUGHPUT",
    "MetricSpec",
    "METRIC_SPECS",
    "METRIC_REGISTRY",
    "aggregate_metrics",
    "aggregate_variances",
    "Instrument",
    "Counter",
    "CycleCounter",
    "MaxGauge",
    "Histogram",
    "RatioGauge",
    "StatGroup",
    "TimelineEvent",
    "IntervalSnapshot",
    "TelemetryRecord",
    "TelemetryBus",
    "NULL_BUS",
    "ZPERF_VERSION",
    "export_zperf",
    "load_zperf",
    "slice_events",
    "downsample_events",
]


# ----------------------------------------------------------------------
# metric registry (single source of the rate/absolute/throughput tables)
# ----------------------------------------------------------------------

#: Metric kinds: how a derived metric behaves under Zatel's
#: extrapolation (Section III-G) and cross-group combination (III-H).
KIND_ABSOLUTE = "absolute"  # scales with work simulated; extrapolates linearly
KIND_RATE = "rate"  # normalized; passes through, averages across groups
KIND_THROUGHPUT = "throughput"  # sums across concurrently-running groups


@dataclass(frozen=True)
class MetricSpec:
    """One derived metric's canonical identity.

    ``kind`` drives extrapolation and combination; ``point_error`` marks
    the [0, 1] metrics whose benchmark errors are reported in percentage
    points rather than relative percent (the harness convention).
    """

    name: str
    kind: str
    description: str
    extended: bool = False
    point_error: bool = False


#: The registry, in the paper's Table I order followed by the extended
#: (non-Table-I) metrics.  Everything downstream — ``METRICS``,
#: ``EXTENDED_METRICS``, ``METRIC_DESCRIPTIONS``, ``MetricKind`` and the
#: harness ``RATE_METRICS`` — derives from this one table.
METRIC_SPECS: tuple[MetricSpec, ...] = (
    MetricSpec("ipc", KIND_THROUGHPUT, "# of instructions executed per cycle"),
    MetricSpec(
        "cycles", KIND_ABSOLUTE, "# of cycles required to ray trace the scene"
    ),
    MetricSpec(
        "l1d_miss_rate",
        KIND_RATE,
        "Total cache miss rate over all L1D instances",
        point_error=True,
    ),
    MetricSpec(
        "l2_miss_rate",
        KIND_RATE,
        "Total cache miss rate over all L2 instances",
        point_error=True,
    ),
    MetricSpec(
        "rt_efficiency",
        KIND_RATE,
        "Average # of active rays per warp over all ray tracing "
        "accelerator units",
    ),
    MetricSpec(
        "dram_efficiency",
        KIND_RATE,
        "DRAM bandwidth utilization with pending requests waiting to be "
        "processed",
        point_error=True,
    ),
    MetricSpec(
        "bw_utilization",
        KIND_RATE,
        "DRAM bandwidth utilization without pending requests waiting to "
        "be processed",
        point_error=True,
    ),
    MetricSpec(
        "simd_efficiency",
        KIND_RATE,
        "Active thread-instructions per issued warp-instruction slot",
        extended=True,
    ),
    MetricSpec(
        "warp_occupancy",
        KIND_RATE,
        "Average resident-warp slots in use across the run",
        extended=True,
    ),
)

#: Name -> spec lookup.
METRIC_REGISTRY: dict[str, MetricSpec] = {s.name: s for s in METRIC_SPECS}


def aggregate_metrics(
    group_metrics: list[dict[str, float]],
    throughput_divisor: float = 1.0,
    mean_divisor: float | None = None,
) -> dict[str, float]:
    """Fold per-group metric dicts by each metric's declared semantics.

    ``THROUGHPUT`` metrics sum (divided by ``throughput_divisor`` — 1.0
    for a plain sum, the survivors' plane coverage for a degraded run);
    everything else averages over ``mean_divisor`` groups (default: the
    number of groups given).  Only metrics present in *every* group are
    aggregated, in registry order — tolerating callers that build
    Table-I-only dicts.

    Raises:
        ValueError: for an empty group list or a non-positive divisor.
    """
    if not group_metrics:
        raise ValueError("cannot aggregate zero metric groups")
    if mean_divisor is None:
        mean_divisor = float(len(group_metrics))
    if throughput_divisor <= 0.0 or mean_divisor <= 0.0:
        raise ValueError("aggregation divisors must be positive")
    combined: dict[str, float] = {}
    for spec in METRIC_SPECS:
        if not all(spec.name in metrics for metrics in group_metrics):
            continue
        total = sum(metrics[spec.name] for metrics in group_metrics)
        if spec.kind == KIND_THROUGHPUT:
            combined[spec.name] = (
                total if throughput_divisor == 1.0 else total / throughput_divisor
            )
        else:
            combined[spec.name] = total / mean_divisor
    return combined


def aggregate_variances(
    group_variances: list[dict[str, float]],
    throughput_divisor: float = 1.0,
    mean_divisor: float | None = None,
) -> dict[str, float]:
    """Variance of :func:`aggregate_metrics`' output under independence.

    Each group's dict holds the variance of *that group's* metric
    estimate (replicate-based, see :mod:`repro.core.samplers`).  Groups
    are simulated independently, so variances of a sum add; the linear
    scalings ``aggregate_metrics`` applies enter squared:

    * ``THROUGHPUT``: ``Var(Σ m_g / d) = Σ var_g / d²``;
    * everything else: ``Var(Σ m_g / K) = Σ var_g / K²``.

    The same divisor conventions apply (``throughput_divisor`` is the
    survivors' coverage for degraded runs, ``mean_divisor`` defaults to
    the group count), and only metrics present in every group aggregate,
    in registry order.

    Raises:
        ValueError: for an empty group list or a non-positive divisor.
    """
    if not group_variances:
        raise ValueError("cannot aggregate zero variance groups")
    if mean_divisor is None:
        mean_divisor = float(len(group_variances))
    if throughput_divisor <= 0.0 or mean_divisor <= 0.0:
        raise ValueError("aggregation divisors must be positive")
    combined: dict[str, float] = {}
    for spec in METRIC_SPECS:
        if not all(spec.name in variances for variances in group_variances):
            continue
        total = sum(variances[spec.name] for variances in group_variances)
        if spec.kind == KIND_THROUGHPUT:
            combined[spec.name] = total / throughput_divisor**2
        else:
            combined[spec.name] = total / mean_divisor**2
    return combined


# ----------------------------------------------------------------------
# instruments and stat groups
# ----------------------------------------------------------------------


class Instrument:
    """Class-level declaration of one raw statistic on a StatGroup.

    Subclasses fix the merge semantics; instances carry documentation
    and the initial value.  At runtime the statistic is a plain
    ``int``/``float`` instance attribute (components mutate it with
    ordinary ``+=``), so instrumented hot paths cost nothing beyond what
    the bespoke stat classes already paid.
    """

    semantics = "sum"

    def __init__(self, doc: str = "", default: Any = 0) -> None:
        self.doc = doc
        self.default = default
        self.name: str | None = None

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def initial(self) -> Any:
        return self.default

    def combine(self, mine: Any, theirs: Any) -> Any:
        return mine + theirs

    def scalars(self, name: str, value: Any) -> dict[str, float]:
        """Flatten this statistic into snapshot counters (name -> value)."""
        return {name: value}


class Counter(Instrument):
    """Monotonic integer count; merges by summation."""


class CycleCounter(Instrument):
    """Accumulated cycle (float) quantity; merges by summation."""

    def __init__(self, doc: str = "") -> None:
        super().__init__(doc, default=0.0)


class MaxGauge(Instrument):
    """High-water mark; merges by maximum."""

    semantics = "max"

    def __init__(self, doc: str = "", default: float = 0.0) -> None:
        super().__init__(doc, default=default)

    def combine(self, mine: Any, theirs: Any) -> Any:
        return mine if mine >= theirs else theirs


class Histogram(Instrument):
    """Fixed-bucket distribution; merges by element-wise summation.

    The instance value is a plain list of bucket counts, indexed by the
    component (``stats.hist[bucket] += 1``).  Histograms are end-of-run
    artifacts: they are excluded from interval snapshots to keep
    snapshot rows lean, but survive :meth:`StatGroup.merge` and the
    ``.zperf`` summary.
    """

    semantics = "elementwise-sum"

    def __init__(self, buckets: int, doc: str = "") -> None:
        if buckets <= 0:
            raise ValueError("histogram needs at least one bucket")
        super().__init__(doc, default=None)
        self.buckets = buckets

    def initial(self) -> list[int]:
        return [0] * self.buckets

    def combine(self, mine: list[int], theirs: list[int]) -> list[int]:
        return [a + b for a, b in zip(mine, theirs)]

    def scalars(self, name: str, value: list[int]) -> dict[str, float]:
        return {}


class RatioGauge:
    """Derived ratio of two sibling instruments (numerator / denominator).

    Reads as an ordinary attribute (``stats.miss_rate``); merging a
    group merges the underlying counters, so the merged ratio is the
    *weighted mean* of the inputs — the semantics hand-written merge
    code used to get right one class at a time.
    """

    semantics = "weighted-mean"

    def __init__(self, numerator: str, denominator: str, doc: str = "") -> None:
        self.numerator = numerator
        self.denominator = denominator
        self.doc = doc
        self.name: str | None = None

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        denominator = getattr(obj, self.denominator)
        if denominator == 0:
            return 0.0
        return getattr(obj, self.numerator) / denominator


class StatGroup:
    """Base class for a component's statistics.

    Subclasses declare instruments as class attributes::

        class CacheStats(StatGroup):
            accesses = Counter("lookups")
            misses = Counter("fills")
            miss_rate = RatioGauge("misses", "accesses")

    which yields a keyword constructor, a generic semantics-aware
    :meth:`merge`, equality, and snapshot flattening for free.
    """

    _instruments: dict[str, Instrument] = {}
    _ratios: dict[str, RatioGauge] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        instruments = dict(cls._instruments)
        ratios = dict(cls._ratios)
        for name, value in vars(cls).items():
            if isinstance(value, Instrument):
                instruments[name] = value
            elif isinstance(value, RatioGauge):
                ratios[name] = value
        cls._instruments = instruments
        cls._ratios = ratios

    def __init__(self, **values: Any) -> None:
        for name, instrument in self._instruments.items():
            setattr(self, name, instrument.initial())
        for name, value in values.items():
            if name not in self._instruments:
                raise TypeError(
                    f"{type(self).__name__} has no statistic {name!r}; "
                    f"known: {sorted(self._instruments)}"
                )
            setattr(self, name, value)

    def merge(self, other: "StatGroup") -> "StatGroup":
        """Fold ``other`` in, per-instrument declared semantics."""
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(other).__name__} into "
                f"{type(self).__name__}"
            )
        for name, instrument in self._instruments.items():
            setattr(
                self,
                name,
                instrument.combine(getattr(self, name), getattr(other, name)),
            )
        return self

    @classmethod
    def merged(cls, groups: Iterable["StatGroup"]) -> "StatGroup":
        """A fresh instance aggregating every group in ``groups``."""
        total = cls()
        for group in groups:
            total.merge(group)
        return total

    def scalars(self) -> dict[str, float]:
        """Snapshot-able counters (histograms excluded) as a flat dict."""
        out: dict[str, float] = {}
        for name, instrument in self._instruments.items():
            out.update(instrument.scalars(name, getattr(self, name)))
        return out

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self._instruments
        )

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._instruments
        )
        return f"{type(self).__name__}({fields})"


# ----------------------------------------------------------------------
# timeline events and interval snapshots
# ----------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class TimelineEvent:
    """One contention/occupancy window on a component's timeline."""

    start: float
    end: float
    component: str
    kind: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class IntervalSnapshot:
    """Cumulative counter values captured at one interval boundary.

    ``counters`` maps ``"component.statistic"`` to the value accumulated
    since cycle 0 — cumulative rather than per-interval so the final
    snapshot reconciles *exactly* with the run's end-of-run statistics;
    per-interval deltas are derived (:meth:`TelemetryRecord.deltas`).
    """

    index: int
    start: float
    end: float
    counters: dict[str, float]


@dataclass(frozen=True)
class TelemetryRecord:
    """A run's full telemetry: interval snapshots plus timeline events.

    Picklable and cheap (tuples of frozen dataclasses), so it rides
    along on ``SimulationStats.telemetry`` through the artifact store
    and across worker processes.
    """

    interval: int
    snapshots: tuple[IntervalSnapshot, ...]
    events: tuple[TimelineEvent, ...]

    def final_counters(self) -> dict[str, float]:
        """Cumulative counters at end of run (empty if no snapshots)."""
        return dict(self.snapshots[-1].counters) if self.snapshots else {}

    def deltas(self) -> list[dict[str, float]]:
        """Per-interval counter increments (one dict per snapshot)."""
        rows: list[dict[str, float]] = []
        previous: dict[str, float] = {}
        for snapshot in self.snapshots:
            rows.append(
                {
                    name: value - previous.get(name, 0)
                    for name, value in snapshot.counters.items()
                }
            )
            previous = snapshot.counters
        return rows


class _WindowTracker:
    """Coalesces overlapping/adjacent [start, end) windows per lane."""

    __slots__ = ("_start", "_end", "closed")

    def __init__(self) -> None:
        self._start = 0.0
        self._end = -1.0  # empty sentinel
        self.closed: list[tuple[float, float]] = []

    def add(self, start: float, end: float) -> None:
        if self._end < self._start:  # first window
            self._start, self._end = start, end
            return
        if start <= self._end:  # overlaps/abuts the open window: extend
            if end > self._end:
                self._end = end
            return
        self.closed.append((self._start, self._end))
        self._start, self._end = start, end

    def flush(self) -> list[tuple[float, float]]:
        if self._end >= self._start:
            self.closed.append((self._start, self._end))
            self._end = self._start - 1.0
        return self.closed


def _noop_advance(cycle: float) -> None:
    """Zero-cost :meth:`TelemetryBus.advance` for a bus without snapshots."""


def _noop_window(component: str, kind: str, start: float, end: float) -> None:
    """Zero-cost :meth:`TelemetryBus.window` for a bus without a timeline."""


class TelemetryBus:
    """Per-simulation hub: component registry, snapshots, timelines.

    One bus is created per :meth:`~repro.gpu.simulator.CycleSimulator.
    run` call; components register their stat groups at construction
    time and the event loop drives :meth:`advance`/:meth:`finalize`.
    A disabled bus (interval 0, no timeline) is inert: registration and
    window recording are no-ops, so the module-level :data:`NULL_BUS`
    can safely back components constructed outside a simulation.

    :meth:`advance` and :meth:`window` sit on the event loop's per-pop
    hot path, so when their feature is off they are swapped for
    module-level no-op functions at construction time — the disabled
    cost is one instance-attribute lookup and an empty call, with no
    boundary arithmetic or tracker lookups behind it.
    """

    def __init__(self, interval: int = 0, timeline: bool = False) -> None:
        if interval < 0:
            raise ValueError("telemetry interval must be >= 0")
        self.interval = int(interval)
        self.timeline = bool(timeline)
        self._groups: dict[str, StatGroup] = {}
        self._snapshots: list[IntervalSnapshot] = []
        self._trackers: dict[tuple[str, str], _WindowTracker] = {}
        self._next_boundary = float(interval) if interval else float("inf")
        self._last_boundary = 0.0
        if not self.interval:
            self.advance = _noop_advance
        if not self.timeline:
            self.window = _noop_window

    @property
    def enabled(self) -> bool:
        return self.interval > 0 or self.timeline

    # -- registration ---------------------------------------------------

    def register(self, component: str, group: StatGroup) -> StatGroup:
        """Attach a component's stat group under a hierarchical name.

        Returns the group (so registration can wrap construction).  On a
        disabled bus this is a no-op, which keeps the shared
        :data:`NULL_BUS` from accumulating state across instances.
        """
        if not self.enabled:
            return group
        if component in self._groups:
            raise ValueError(f"component {component!r} already registered")
        self._groups[component] = group
        return group

    def counters(self) -> dict[str, float]:
        """Cumulative counters over all registered components, flat."""
        out: dict[str, float] = {}
        for component, group in self._groups.items():
            for name, value in group.scalars().items():
                out[f"{component}.{name}"] = value
        return out

    # -- interval snapshots --------------------------------------------

    def advance(self, cycle: float) -> None:
        """Called by the event loop: snapshot any crossed boundaries.

        The simulator processes events in nondecreasing cycle order, so
        a snapshot taken when the first event at/after a boundary pops
        reflects all work completed before that boundary.
        """
        while cycle >= self._next_boundary:
            self._snapshot(self._next_boundary)
            self._next_boundary += self.interval

    def _snapshot(self, cycle: float) -> None:
        self._snapshots.append(
            IntervalSnapshot(
                index=len(self._snapshots),
                start=self._last_boundary,
                end=cycle,
                counters=self.counters(),
            )
        )
        self._last_boundary = cycle

    # -- timeline windows ----------------------------------------------

    def window(self, component: str, kind: str, start: float, end: float) -> None:
        """Record a contention window (coalesced per component+kind lane)."""
        if not self.timeline or end <= start:
            return
        key = (component, kind)
        tracker = self._trackers.get(key)
        if tracker is None:
            tracker = self._trackers[key] = _WindowTracker()
        tracker.add(start, end)

    # -- lifecycle ------------------------------------------------------

    def finalize(self, cycle: float) -> None:
        """Close the run at ``cycle``: trailing snapshot, flush windows."""
        if self.enabled and (
            not self._snapshots or self._snapshots[-1].end < cycle
        ):
            self._snapshot(cycle)

    def events(self) -> tuple[TimelineEvent, ...]:
        """All coalesced windows as time-ordered events."""
        events = [
            TimelineEvent(start=start, end=end, component=component, kind=kind)
            for (component, kind), tracker in self._trackers.items()
            for start, end in tracker.flush()
        ]
        return tuple(sorted(events))

    def record(self) -> TelemetryRecord | None:
        """The run's telemetry, or ``None`` for a disabled bus."""
        if not self.enabled:
            return None
        return TelemetryRecord(
            interval=self.interval,
            snapshots=tuple(self._snapshots),
            events=self.events(),
        )


#: Shared inert bus backing components constructed without telemetry.
NULL_BUS = TelemetryBus()


# ----------------------------------------------------------------------
# .zperf export (JSON lines)
# ----------------------------------------------------------------------

ZPERF_VERSION = 1


def export_zperf(path: str | Path, stats, meta: dict | None = None) -> Path:
    """Write a run's telemetry as a ``.zperf`` JSON-lines file.

    Line 1 is a header (format version, snapshot interval, run
    provenance); then one ``interval`` row per snapshot carrying the
    per-interval counter *deltas*; one ``event`` row per timeline
    window; and a trailing ``summary`` row with the cumulative counters
    and the run's derived Table I + extended metrics.

    Args:
        path: output file path.
        stats: a :class:`~repro.gpu.stats.SimulationStats` whose
            ``telemetry`` field is populated (i.e. the producing
            ``GPUConfig`` enabled telemetry).
        meta: extra provenance merged into the header (scene, GPU, ...).

    Raises:
        ValueError: if ``stats`` carries no telemetry record.
    """
    record: TelemetryRecord | None = getattr(stats, "telemetry", None)
    if record is None:
        raise ValueError(
            "simulation ran without telemetry; enable it via "
            "GPUConfig.telemetry_interval / GPUConfig.timeline_trace"
        )
    path = Path(path)
    header = {
        "type": "header",
        "version": ZPERF_VERSION,
        "interval": record.interval,
        "cycles": stats.cycles,
        "config": stats.config_name,
        "intervals": len(record.snapshots),
        "events": len(record.events),
    }
    if meta:
        header.update(meta)
    with path.open("w") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for snapshot, delta in zip(record.snapshots, record.deltas()):
            row = {
                "type": "interval",
                "i": snapshot.index,
                "start": snapshot.start,
                "end": snapshot.end,
                "d": delta,
            }
            handle.write(json.dumps(row, sort_keys=True) + "\n")
        for event in record.events:
            row = {
                "type": "event",
                "component": event.component,
                "kind": event.kind,
                "start": event.start,
                "end": event.end,
            }
            handle.write(json.dumps(row, sort_keys=True) + "\n")
        summary = {
            "type": "summary",
            "counters": record.final_counters(),
            "metrics": {**stats.metrics(), **stats.extended_metrics()},
        }
        handle.write(json.dumps(summary, sort_keys=True) + "\n")
    return path


def load_zperf(path: str | Path) -> dict[str, Any]:
    """Parse a ``.zperf`` file back into its sections.

    Returns ``{"header": dict, "intervals": [rows], "events": [rows],
    "summary": dict}``.

    Raises:
        ValueError: on malformed JSON lines, a missing/foreign header,
            or an unsupported format version.
    """
    path = Path(path)
    header: dict | None = None
    intervals: list[dict] = []
    events: list[dict] = []
    summary: dict = {}
    with path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{lineno}: malformed .zperf line: {error}"
                ) from None
            kind = row.get("type")
            if lineno == 1:
                if kind != "header":
                    raise ValueError(f"{path}: not a .zperf file (no header)")
                if row.get("version") != ZPERF_VERSION:
                    raise ValueError(
                        f"{path}: unsupported .zperf version "
                        f"{row.get('version')!r} (expected {ZPERF_VERSION})"
                    )
                header = row
            elif kind == "interval":
                intervals.append(row)
            elif kind == "event":
                events.append(row)
            elif kind == "summary":
                summary = row
            else:
                raise ValueError(
                    f"{path}:{lineno}: unknown .zperf row type {kind!r}"
                )
    if header is None:
        raise ValueError(f"{path}: empty .zperf file")
    return {
        "header": header,
        "intervals": intervals,
        "events": events,
        "summary": summary,
    }


# ----------------------------------------------------------------------
# timeline window slicing / downsampling (pagination support)
# ----------------------------------------------------------------------


def _window_fields(event) -> tuple[str, str, float, float]:
    if isinstance(event, dict):
        return event["component"], event["kind"], event["start"], event["end"]
    return event.component, event.kind, event.start, event.end


def slice_events(
    events, start: float = 0.0, end: float | None = None
) -> list[dict]:
    """Clip timeline events to the ``[start, end)`` cycle range.

    Windows straddling a boundary are truncated at it, not dropped —
    a paginated client stitching adjacent ranges back together sees
    exactly the original coverage, with no double counting and no gaps.
    Windows that end up empty after clipping are omitted.  Accepts
    :class:`TimelineEvent` instances or ``.zperf`` event dicts; always
    returns plain dicts sorted by ``(start, end, component, kind)``.

    Raises:
        ValueError: if ``start`` is negative or ``end <= start``.
    """
    if start < 0:
        raise ValueError("slice start must be >= 0")
    if end is not None and end <= start:
        raise ValueError("slice end must be greater than start")
    out: list[dict] = []
    for event in events:
        component, kind, lo, hi = _window_fields(event)
        lo = max(lo, start)
        if end is not None:
            hi = min(hi, end)
        if hi <= lo:
            continue
        out.append(
            {"component": component, "kind": kind, "start": lo, "end": hi}
        )
    out.sort(key=lambda e: (e["start"], e["end"], e["component"], e["kind"]))
    return out


def downsample_events(events, max_per_lane: int) -> list[dict]:
    """Cap each (component, kind) lane at ``max_per_lane`` windows.

    A lane over the cap is reduced by repeatedly bridging the *smallest*
    idle gap between consecutive windows (ties break toward the earlier
    gap), so the windows that disappear are the distinctions a client
    could least resolve anyway.  Merging only ever grows coverage — the
    lane's envelope and its busiest stretches survive — and the
    procedure is deterministic, so paginated requests downsample
    identically.  Returns plain dicts sorted like :func:`slice_events`.

    Raises:
        ValueError: if ``max_per_lane`` is not positive.
    """
    if max_per_lane <= 0:
        raise ValueError("max_per_lane must be positive")
    lanes: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for event in events:
        component, kind, lo, hi = _window_fields(event)
        lanes.setdefault((component, kind), []).append((lo, hi))
    out: list[dict] = []
    for (component, kind), windows in lanes.items():
        windows.sort()
        while len(windows) > max_per_lane:
            gaps = [
                windows[i + 1][0] - windows[i][1]
                for i in range(len(windows) - 1)
            ]
            i = gaps.index(min(gaps))
            windows[i : i + 2] = [(windows[i][0], windows[i + 1][1])]
        out.extend(
            {"component": component, "kind": kind, "start": lo, "end": hi}
            for lo, hi in windows
        )
    out.sort(key=lambda e: (e["start"], e["end"], e["component"], e["kind"]))
    return out
