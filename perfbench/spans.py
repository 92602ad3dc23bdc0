"""Spans recorded around the program's public boundaries, from outside it.

A traced run installs wrappers on the boundaries listed in ``BOUNDARIES``
and records one :class:`Span` per call: its layer name, start, end, parent
span and op id.  Spans stay in memory and are dumped to JSON when the run
ends.  Nothing inside ``src/`` records anything; every wrapper is patched
where callers look the name up (the class attribute for methods, every
``repro.*`` module attribute bound to the original for functions), and
:meth:`Tracer.uninstall` puts the originals back.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

__all__ = [
    "BOUNDARIES",
    "STAGE_LAYERS",
    "Span",
    "SpanRecorder",
    "Tracer",
    "covered",
    "self_times",
    "op_breakdown",
    "load_spans",
]

#: Concrete stage class -> layer suffix (``stages.<suffix>``).
STAGE_LAYERS = {
    "ProfileStage": "profile",
    "QuantizeStage": "quantize",
    "DownscaleStage": "downscale",
    "PartitionStage": "partition",
    "SelectStage": "select",
    "SimulateGroupStage": "simulate",
    "CombineStage": "combine",
}


@dataclass
class Span:
    """One call across a wrapped boundary."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: str = ""
    thread: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; one open-span stack per thread.

    A span opened with no open parent on its thread is a root.  Its op id
    is the one set by :meth:`op` on that thread, or else a fresh
    ``root<n>`` id, so every span of one request shares an identifier.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, op_id: str):
        """Name the op of every span opened inside this block."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = previous

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            if parent is not None:
                op = self.spans[parent].op
            else:
                op = getattr(self._local, "op", None)
                if op is None:
                    self._roots += 1
                    op = f"root{self._roots}"
            index = len(self.spans)
            self.spans.append(
                Span(
                    name=name,
                    start=time.perf_counter(),
                    parent=parent,
                    op=op,
                    thread=threading.get_ident(),
                )
            )
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        self.spans[index].end = end

    @contextmanager
    def span(self, name: str):
        """Record one span around the block; yields the :class:`Span`."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def dump(self, path) -> None:
        """Write every closed span as JSON (``{"spans": [...]}``)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [asdict(s) for s in self.spans]}, handle)


def load_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(**raw) for raw in json.load(handle)["spans"]]


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def _simulation_attrs(stats) -> dict[str, Any]:
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "work_units": stats.work_units,
        "l1d_accesses": stats.l1d_accesses,
        "l1d_misses": stats.l1d_misses,
        "l2_accesses": stats.l2_accesses,
        "l2_misses": stats.l2_misses,
        "rt_traversal_steps": stats.rt_traversal_steps,
        "dram_requests": stats.dram_requests,
    }


def _timed(recorder: SpanRecorder, name: str, fn: Callable, attrs=None):
    """``fn`` wrapped in a span; ``attrs(result, args, kwargs)`` annotates it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
            if attrs is not None:
                span.attrs.update(attrs(result, args, kwargs))
            return result

    return wrapper


def _stage_execute(recorder: SpanRecorder, layer: str, execute: Callable):
    name = f"stages.{layer}"

    @functools.wraps(execute)
    def wrapper(self, ctx, inputs):
        hits_before = ctx.counters.cache_hits.get(self.name, 0)
        with recorder.span(name) as span:
            result = execute(self, ctx, inputs)
            span.attrs["hit"] = (
                ctx.counters.cache_hits.get(self.name, 0) > hits_before
            )
            return result

    return wrapper


def _resolve_scene(recorder: SpanRecorder, resolve: Callable):
    from repro.scene.registry import scene_cache_info

    @functools.wraps(resolve)
    def wrapper(spec):
        misses_before = scene_cache_info()["misses"]
        with recorder.span("scene.build") as span:
            scene = resolve(spec)
            span.attrs["built"] = scene_cache_info()["misses"] > misses_before
            return scene

    return wrapper


def _executor_run(recorder: SpanRecorder, run: Callable):
    @functools.wraps(run)
    def wrapper(self, task, count):
        def timed_task(index, attempt):
            with recorder.span("executor.task"):
                return task(index, attempt)

        with recorder.span("executor.run") as span:
            report = run(self, timed_task, count)
            span.attrs["retries"] = sum(
                max(0, attempts - 1) for attempts in report.attempts.values()
            )
            span.attrs["failures"] = len(report.failures)
            return report

    return wrapper


def _store_get(recorder: SpanRecorder, get: Callable):
    missing = object()

    @functools.wraps(get)
    def wrapper(self, key, default=None):
        with recorder.span("store.get") as span:
            value = get(self, key, missing)
            span.attrs["hit"] = value is not missing
            return default if value is missing else value

    return wrapper


#: Every wrapped boundary: (dotted owner, attribute, layer name).  A
#: module owner means a function patched wherever it was imported; a
#: class owner means a method patched on the class.
BOUNDARIES = (
    ("repro.scene.registry", "resolve_scene", "scene.build"),
    ("repro.tracer.tracer:FunctionalTracer", "trace_frame", "tracer.trace"),
    ("repro.core.pipeline:Zatel", "predict", "pipeline.predict"),
    ("repro.core.stages.base:StageGraph", "resolve", "pipeline.resolve"),
    ("repro.harness.service:ServiceRunner", "execute", "service.execute"),
    ("repro.core.stages.fingerprint", "frame_fingerprint", "stages.fingerprint"),
    ("repro.core.stages.store:ArtifactStore", "get", "store.get"),
    ("repro.core.stages.store:ArtifactStore", "put", "store.put"),
    ("repro.core.executor:GroupExecutor", "run", "executor.run"),
    ("repro.gpu.frontend", "compile_kernel", "frontend.compile"),
    ("repro.gpu.simulator:CycleSimulator", "run", "simulator.run"),
) + tuple(
    (f"repro.core.stages.concrete:{cls}", "execute", f"stages.{layer}")
    for cls, layer in STAGE_LAYERS.items()
)


class Tracer:
    """Installs and removes the span wrappers on :data:`BOUNDARIES`."""

    def __init__(self, recorder: SpanRecorder | None = None) -> None:
        self.recorder = recorder if recorder is not None else SpanRecorder()
        #: (owner object, attribute, original, wrapper, had own attribute)
        self._patches: list[tuple[Any, str, Any, Any, bool]] = []

    def _wrapper_for(self, layer: str, attr: str, original: Callable):
        recorder = self.recorder
        if layer.startswith("stages.") and attr == "execute":
            return _stage_execute(recorder, layer.split(".", 1)[1], original)
        if layer == "scene.build":
            return _resolve_scene(recorder, original)
        if layer == "executor.run":
            return _executor_run(recorder, original)
        if layer == "store.get":
            return _store_get(recorder, original)
        if layer == "simulator.run":
            return _timed(
                recorder, layer, original,
                lambda stats, args, kwargs: _simulation_attrs(stats),
            )
        if layer == "frontend.compile":
            return _timed(
                recorder, layer, original,
                lambda warps, args, kwargs: {"warps": len(warps)},
            )
        return _timed(recorder, layer, original)

    def install(self) -> "Tracer":
        import importlib

        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner_path, attr, layer in BOUNDARIES:
            module_name, _, class_name = owner_path.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                owner = getattr(module, class_name)
                own = attr in vars(owner)
                original = getattr(owner, attr)
                wrapper = self._wrapper_for(layer, attr, original)
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original, wrapper, own))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper_for(layer, attr, original)
            for loaded in list(sys.modules.values()):
                name = getattr(loaded, "__name__", "")
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                if getattr(loaded, attr, None) is original:
                    setattr(loaded, attr, wrapper)
                    self._patches.append((loaded, attr, original, wrapper, True))
        return self

    def uninstall(self) -> None:
        """Restore every original, including copies bound after install."""
        for owner, attr, original, wrapper, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
            if isinstance(owner, type):
                continue
            for loaded in list(sys.modules.values()):
                if getattr(loaded, attr, None) is wrapper:
                    setattr(loaded, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in clipped:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(span.start, span.end, children.get(i, []))
        for i, span in enumerate(spans)
    ]


def op_breakdown(spans: list[Span], op_layer: str, since: float | None = None) -> dict:
    """Where the time of the ops rooted at ``op_layer`` spans went.

    Sums, over every ``op_layer`` span (starting at ``since`` or later),
    the self time of each layer in its subtree.  The op span's own self
    time is the *unattributed* remainder, so
    ``sum(layers) + unattributed_s == op_s`` exactly.
    """
    selves = self_times(spans)
    roots = {
        i
        for i, s in enumerate(spans)
        if s.name == op_layer and (since is None or s.start >= since)
    }
    owner: dict[int, int] = {}
    for i, span in enumerate(spans):
        if i in roots:
            owner[i] = i
        elif span.parent is not None and span.parent in owner:
            owner[i] = owner[span.parent]
    layers: dict[str, float] = {}
    unattributed = 0.0
    for i, root in owner.items():
        if i == root:
            unattributed += selves[i]
        else:
            name = spans[i].name
            layers[name] = layers.get(name, 0.0) + selves[i]
    op_s = sum(spans[i].duration for i in roots)
    largest = max(layers, key=layers.get) if layers else None
    return {
        "ops": len(roots),
        "op_s": op_s,
        "layers_self_s": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
        "unattributed_s": unattributed,
        "largest_layer": largest,
        "largest_share": layers[largest] / op_s if largest and op_s > 0 else 0.0,
    }
