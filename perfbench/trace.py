"""Benchmark-side span tracing around the library's public entry points.

The traced run never edits the library: :class:`Instrumentation` swaps
selected functions and methods for thin wrappers that open and close a
span, and puts the originals back afterwards.  A span is four numbers
kept in flat arrays (name id, parent index, start, end), so even the
per-message ``ComputeContext.send`` spans of a DRL_b build fit in a few
tens of MB.  Self time is derived afterwards: a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

_MISSING = object()

#: Span names that belong to one layer of the self-time table.
_DYNAMIC_OPS = ("insert", "delete", "add_node", "delete_node", "promote")
DYNAMIC_SPANS = {f"core.dynamic.{op}": op for op in _DYNAMIC_OPS}

#: Every layer of the self-time table, in print order.  ``bench`` is the
#: root span around the timed region: its self time is ``other``.
LAYERS = (
    "core.build",
    "core.tol",
    "core.drl_batch",
    "core.drl.compute",
    "pregel.send",
    "core.drl.barrier",
    "core.drl.finalize",
    "core.labels.collect",
    "pregel.run",
    "pregel.mp.workers",
    "serve.pipeline",
    "serve.cache",
    "serve.store",
    "core.labels.query",
    "serve.mutation",
    "core.dynamic",
    "core.dynamic.query",
    "serve.replica",
)


def layer_of(name: str) -> str:
    """The self-time layer a span name is charged to."""
    return "core.dynamic" if name in DYNAMIC_SPANS else name


class Tracer:
    """In-memory span store: one entry per call, nested by a stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    # -- analysis ------------------------------------------------------
    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def spans_named(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [i for i, n in enumerate(self.name) if n == nid]

    def name_at(self, i: int) -> str:
        return self.names[self.name[i]]

    def ancestors(self, i: int):
        p = self.parent[i]
        while p >= 0:
            yield p
            p = self.parent[p]

    def descendants_of(self, root: int) -> list[int]:
        """Spans nested (at any depth) under ``root``; spans are stored
        in open order, so descendants follow their ancestor."""
        inside = {root}
        found = []
        for i in range(root + 1, len(self.name)):
            if self.parent[i] in inside:
                inside.add(i)
                found.append(i)
        return found

    def write(self, path: Path) -> None:
        """Write every span: a JSON header line, then the raw arrays
        (int32 name ids, int32 parents, float64 starts, float64 ends)."""
        header = {
            "names": self.names,
            "count": len(self.name),
            "arrays": ["name:i4", "parent:i4", "start:f8", "end:f8"],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)


class Instrumentation:
    """Installs span wrappers on library entry points; undoes them.

    Patches go on the object the library looks the name up on at call
    time (a class, or the module a caller imported the function into),
    so the library's own code is unchanged.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        self._hot: list[tuple[object, str, object, object]] = []
        #: ``(s, t)`` of every traced ``ReachabilityIndex.query`` call.
        self.query_pairs = array("i")

    def _set(self, owner, attr: str, value) -> None:
        current = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, current))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, name: str, hot: bool = False) -> None:
        raw = cls.__dict__.get(attr, _MISSING)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.tracer.wrap(name, raw.__func__))
        else:
            wrapped = self.tracer.wrap(name, getattr(cls, attr))
        self._set(cls, attr, wrapped)
        if hot:
            self._hot.append((cls, attr, raw, wrapped))

    def function(self, owners, attr: str, name: str) -> None:
        """Wrap one function everywhere it was imported into."""
        wrapped = self.tracer.wrap(name, getattr(owners[0], attr))
        for owner in owners:
            self._set(owner, attr, wrapped)

    def table_entry(self, table: dict, key: str, name: str) -> None:
        self._undo.append((table, key, table[key]))
        table[key] = self.tracer.wrap(name, table[key])

    @contextmanager
    def hot_paths_off(self):
        """Restore per-vertex wrappers while a multiprocess run forks:
        their spans would be recorded in the workers' copies and lost."""
        for cls, attr, raw, _ in self._hot:
            if raw is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, raw)
        try:
            yield
        finally:
            for cls, attr, _, wrapped in self._hot:
                setattr(cls, attr, wrapped)

    def install(self) -> "Instrumentation":
        """Wrap the entry points of ``repro.pregel``, ``repro.core`` and
        ``repro.serve`` that the workloads reach."""
        import repro.core.build as build
        import repro.core.tol as tol
        from repro.core.drl import DrlFloodProgram
        from repro.core.dynamic import DynamicReachabilityIndex
        from repro.core.labels import ReachabilityIndex
        from repro.pregel.engine import Cluster, ComputeContext
        from repro.serve.cache import CachingBackend, QueryCache
        from repro.serve.mutation import MutationBackend
        from repro.serve.pipeline import QueryServer
        from repro.serve.replica import BoundedStalenessReplicator
        from repro.serve.store import ShardedIndexBackend

        self.function([tol, build], "tol_index", "core.tol")
        self.table_entry(build._METHODS, "drl-b", "core.drl_batch")
        self.method(DrlFloodProgram, "compute", "core.drl.compute", hot=True)
        self.method(ComputeContext, "send", "pregel.send", hot=True)
        self.method(DrlFloodProgram, "on_barrier", "core.drl.barrier")
        self.method(DrlFloodProgram, "finalize", "core.drl.finalize")
        self.method(ReachabilityIndex, "from_label_lists", "core.labels.collect")
        self.method(ReachabilityIndex, "save", "core.labels.save")
        self.method(ReachabilityIndex, "load", "core.labels.load")
        self._cluster_run(Cluster)
        self._label_query(ReachabilityIndex)
        self.method(QueryServer, "run_closed", "serve.pipeline")
        self.method(QueryServer, "run_mixed", "serve.pipeline")
        self.method(CachingBackend, "query_with_cost", "serve.cache")
        self.method(QueryCache, "invalidate_for_update", "serve.cache")
        self.method(ShardedIndexBackend, "query_with_cost", "serve.store")
        self.method(MutationBackend, "apply_with_cost", "serve.mutation")
        for attr, span in (
            ("insert_edge", "core.dynamic.insert"),
            ("delete_edge", "core.dynamic.delete"),
            ("add_node", "core.dynamic.add_node"),
            ("delete_node", "core.dynamic.delete_node"),
            ("promote", "core.dynamic.promote"),
            ("query", "core.dynamic.query"),
        ):
            self.method(DynamicReachabilityIndex, attr, span)
        self.method(BoundedStalenessReplicator, "advance", "serve.replica")
        self.method(BoundedStalenessReplicator, "catch_up", "serve.replica")
        return self

    def _cluster_run(self, cluster_cls) -> None:
        run = self.tracer.wrap("pregel.run", cluster_cls.run)
        instrumentation = self

        def cluster_run(cluster, *args, **kwargs):
            if cluster.engine.name == "sim":
                return run(cluster, *args, **kwargs)
            with instrumentation.hot_paths_off():
                return run(cluster, *args, **kwargs)

        self._set(cluster_cls, "run", cluster_run)

    def _label_query(self, index_cls) -> None:
        query = self.tracer.wrap("core.labels.query", index_cls.query)
        pairs = self.query_pairs

        def label_query(index, s, t):
            pairs.append(s)
            pairs.append(t)
            return query(index, s, t)

        self._set(index_cls, "query", label_query)

    def restore(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = old
            elif old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()
        self._hot.clear()


@contextmanager
def instrumented(tracer: Tracer):
    """Wrappers installed for the duration of the block."""
    inst = Instrumentation(tracer).install()
    try:
        yield inst
    finally:
        inst.restore()
