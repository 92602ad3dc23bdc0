"""The stage protocol and the graph that executes it.

A :class:`Stage` is one typed step of the Zatel methodology with

* declared **inputs** (named upstream artifacts) and one output artifact;
* a deterministic **fingerprint** — ``stable_hash(stage name, code
  version, parameters, upstream artifact keys)`` — which is the output's
  content address in the :class:`~.store.ArtifactStore`;
* a ``run`` implementation that is a pure function of its inputs (plus
  the execution-only knobs on the context, which by design change *how*
  work runs, never *what* it computes).

:class:`StageGraph` wires stages to each other and to source artifacts
(frames, scenes, GPU configs), and executes nodes with fingerprint
memoization: a node whose key is already in the store is a cache hit and
its stage never runs.  :class:`StageCounters` records exactly that
distinction, which the sweep-dedup tests assert on.

Resolution is demand-driven, from the sink down.  Because a node's key
is computable without running anything (:meth:`StageNode.
fingerprint_static`), :meth:`StageGraph.resolve` probes the store for a
node *before* expanding its dependencies; on a hit nothing upstream is
resolved.  A warm predict therefore reads its one persisted result and
runs no stage.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, ClassVar

from .fingerprint import stable_hash
from .store import ArtifactStore

__all__ = [
    "Artifact",
    "Stage",
    "StageContext",
    "StageCounters",
    "StageGraph",
    "StageNode",
    "UnresolvedInputError",
    "source",
]


@dataclass(frozen=True)
class Artifact:
    """A value plus the content address of the computation that made it."""

    key: str
    value: Any


def source(name: str, value: Any, key: str | None = None) -> Artifact:
    """Wrap an external input (frame, scene, GPU config) as an artifact.

    ``key`` should be a content fingerprint when one is available (see
    :mod:`.fingerprint`); otherwise the value itself must be hashable by
    :func:`~.fingerprint.stable_hash`.
    """
    return Artifact(key if key is not None else stable_hash("source", name, value), value)


@dataclass
class StageCounters:
    """Per-stage execution accounting for one context.

    ``executions[name]`` counts live ``run()`` calls; ``cache_hits[name]``
    counts fingerprint matches that skipped the stage entirely.  A
    deduplicated sweep shows up here as executions staying flat while
    hits grow.
    """

    executions: dict[str, int] = field(default_factory=dict)
    cache_hits: dict[str, int] = field(default_factory=dict)

    def record_execution(self, name: str) -> None:
        self.executions[name] = self.executions.get(name, 0) + 1

    def record_hit(self, name: str) -> None:
        self.cache_hits[name] = self.cache_hits.get(name, 0) + 1

    def fold(self, other: "StageCounters") -> None:
        """Add ``other``'s counts, e.g. those one sweep task made."""
        for name, count in other.executions.items():
            self.executions[name] = self.executions.get(name, 0) + count
        for name, count in other.cache_hits.items():
            self.cache_hits[name] = self.cache_hits.get(name, 0) + count

    def total_executions(self) -> int:
        return sum(self.executions.values())

    def total_hits(self) -> int:
        return sum(self.cache_hits.values())


@dataclass
class StageContext:
    """Everything a stage execution may touch besides its inputs.

    ``store`` caches artifacts by fingerprint; ``counters`` audits what
    ran.  ``policy`` and ``fault_plan`` configure the fault-tolerant
    group executor inside :class:`~.concrete.SimulateGroupStage` — they
    are execution knobs and deliberately excluded from fingerprints.

    ``execution_notes`` is the reverse channel for execution (non-
    content) observations a stage makes while running — e.g. the group
    executor degrading a ``workers > 1`` request to serial on a platform
    without ``fork``.  Notes describe *this* execution only, so they are
    never cached with artifacts; drivers copy them onto their result
    (``ZatelResult.serial_fallback``) after resolving the graph.
    """

    store: ArtifactStore = field(default_factory=ArtifactStore)
    counters: StageCounters = field(default_factory=StageCounters)
    policy: Any | None = None
    fault_plan: Any | None = None
    execution_notes: dict[str, Any] = field(default_factory=dict)


class Stage(ABC):
    """One pipeline step with a declared identity and fingerprint.

    Subclasses set:

    * ``name`` — stable stage identifier (also the counter key);
    * ``code_version`` — bump when the implementation changes in a way
      that invalidates cached outputs;
    * ``cacheable`` — whether outputs are worth persisting to disk
      (expensive artifacts) or belong in the in-memory memo only.
    """

    name: ClassVar[str] = "stage"
    code_version: ClassVar[str] = "1"
    cacheable: ClassVar[bool] = False

    def params(self) -> Any:
        """The stage's configuration contribution to its fingerprint."""
        return ()

    def fingerprint(self, input_keys: dict[str, str]) -> str:
        """Content address of this stage's output for the given inputs."""
        return stable_hash(
            "stage",
            self.name,
            self.code_version,
            self.params(),
            tuple(sorted(input_keys.items())),
        )

    def should_cache(self, result: Any) -> bool:  # noqa: ARG002
        """Whether a freshly computed ``result`` may be *persisted*.

        Overridden by stages whose output can be tainted by execution
        faults: a degraded simulation still flows to its downstream
        stages through the in-memory memo, but must never shadow a clean
        artifact on disk.
        """
        return True

    @abstractmethod
    def run(self, ctx: StageContext, **inputs: Any) -> Any:
        """Compute the output value from resolved input values."""

    def execute(self, ctx: StageContext, inputs: dict[str, Artifact]) -> Artifact:
        """Run with fingerprint memoization through ``ctx.store``.

        An input may be *unresolved* (its key without a value) when the
        graph probed this stage's output before resolving upstream.  Such
        a call is only ever served from the store: on a miss it raises
        :class:`UnresolvedInputError` instead of running.
        """
        key = self.fingerprint({name: a.key for name, a in inputs.items()})
        cached = ctx.store.get(key, default=_MISSING)
        if cached is not _MISSING:
            ctx.counters.record_hit(self.name)
            return Artifact(key, cached)
        if any(a.value is _UNRESOLVED for a in inputs.values()):
            raise UnresolvedInputError(self.name)
        ctx.counters.record_execution(self.name)
        value = self.run(ctx, **{name: a.value for name, a in inputs.items()})
        ctx.store.put(
            key, value, persist=self.cacheable and self.should_cache(value)
        )
        return Artifact(key, value)


_MISSING = object()

#: Value of an input artifact whose upstream node was not resolved.
_UNRESOLVED = object()


class UnresolvedInputError(LookupError):
    """A store-only :meth:`Stage.execute` call missed the store.

    The probed artifact vanished between the probe and the lookup (a
    concurrent ``forget`` or corrupt-entry deletion); the graph then
    resolves the dependencies and runs the stage normally.
    """


class StageNode:
    """One stage invocation in a graph, wired to upstream nodes/sources."""

    def __init__(self, stage: Stage, inputs: dict[str, "StageNode | Artifact"]):
        self.stage = stage
        self.inputs = inputs

    def input_key(self, ctx_cache: dict[int, str], name: str) -> str:
        upstream = self.inputs[name]
        if isinstance(upstream, Artifact):
            return upstream.key
        return upstream.fingerprint_static(ctx_cache)

    def fingerprint_static(self, cache: dict[int, str] | None = None) -> str:
        """This node's output key, computed without executing anything.

        Possible because fingerprints depend only on stage identities and
        source keys — which is what lets :meth:`StageGraph.resolve` probe
        the store for a node *before* resolving its dependencies.
        """
        if cache is None:
            cache = {}
        # Iterative post-order, so deep chains cannot overflow the stack.
        stack = [self]
        while stack:
            node = stack[-1]
            if id(node) in cache:
                stack.pop()
                continue
            missing = [d for d in node.dependencies() if id(d) not in cache]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            cache[id(node)] = node.stage.fingerprint(
                {name: node.input_key(cache, name) for name in node.inputs}
            )
        return cache[id(self)]

    def dependencies(self) -> list["StageNode"]:
        return [n for n in self.inputs.values() if isinstance(n, StageNode)]


class StageGraph:
    """A DAG of stage invocations over source artifacts."""

    def __init__(self) -> None:
        self.nodes: list[StageNode] = []

    def add(self, stage: Stage, **inputs: "StageNode | Artifact") -> StageNode:
        node = StageNode(stage, inputs)
        self.nodes.append(node)
        return node

    def resolve(
        self,
        node: StageNode,
        ctx: StageContext,
        resolved: dict[int, Artifact] | None = None,
    ) -> Artifact:
        """Execute ``node``, resolving only the dependencies it needs.

        Sink first: before a node's dependencies are expanded, its static
        fingerprint is probed in ``ctx.store``.  On a hit the node is
        executed with key-only inputs for the upstream nodes it skipped;
        ``execute`` recomputes the same key and records the hit, and
        nothing upstream is resolved.  If that lookup misses after all,
        the dependencies are resolved and the stage runs as usual; a
        stage never runs on an unresolved input.

        ``resolved`` memoizes per-call so shared upstream nodes run once
        even before the store's fingerprint memoization kicks in.
        Dependencies are resolved iteratively (no recursion) so deep
        graphs cannot overflow the stack.
        """
        if resolved is None:
            resolved = {}
        keys: dict[int, str] = {}
        stack: list[tuple[StageNode, bool]] = [(node, False)]
        while stack:
            current, ready = stack.pop()
            if id(current) in resolved:
                continue
            if not ready:
                pending = [
                    d for d in current.dependencies() if id(d) not in resolved
                ]
                if pending:
                    if ctx.store.contains(current.fingerprint_static(keys)):
                        try:
                            resolved[id(current)] = current.stage.execute(
                                ctx, _inputs_of(current, resolved, keys)
                            )
                            continue
                        except UnresolvedInputError:
                            pass
                    stack.append((current, True))
                    stack.extend((dep, False) for dep in pending)
                    continue
            resolved[id(current)] = current.stage.execute(
                ctx, _inputs_of(current, resolved, keys)
            )
        return resolved[id(node)]


def _inputs_of(
    node: StageNode, resolved: dict[int, Artifact], keys: dict[int, str]
) -> dict[str, Artifact]:
    """``node``'s input artifacts; unresolved upstream nodes as key only."""
    inputs = {}
    for name, upstream in node.inputs.items():
        if isinstance(upstream, Artifact):
            inputs[name] = upstream
        elif id(upstream) in resolved:
            inputs[name] = resolved[id(upstream)]
        else:
            inputs[name] = Artifact(upstream.fingerprint_static(keys), _UNRESOLVED)
    return inputs
