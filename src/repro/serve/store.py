"""Sharded label store: the serving layer's data tier.

The paper's §III-D collects the finished index onto one machine; at
"millions of users" scale a single machine neither holds the labels of
a trillion-edge graph nor absorbs the query load.  The store keeps
``L_in``/``L_out`` partitioned across ``num_shards`` shards — reusing
the exact :mod:`repro.graph.partition` partitioners the builders use —
and charges every cross-shard label fetch through the
:class:`~repro.pregel.cost_model.CostModel`, so a query whose source
and target live on different shards pays a realistic communication
cost (one serialized hop plus the label bytes per remote shard).

Per-shard bookkeeping feeds the two serving questions the paper never
had to ask:

- **memory accounting** — each shard's label bytes are checked against
  the cost model's per-node budget at construction, so a partitioning
  that overloads one shard fails loudly instead of "fitting" because
  the total would fit;
- **load accounting** — every fetch increments the touched shards'
  request counters, so `serve-bench` can report load skew (a Zipf
  workload hammers whichever shards own the hot vertices).
"""

from __future__ import annotations

from repro.core.labels import ReachabilityIndex
from repro.errors import ShardOutOfMemoryError
from repro.graph.partition import HashPartitioner, Partitioner
from repro.observe import tracing
from repro.pregel.cost_model import DEFAULT_COST_MODEL, CostModel


class LabelShard:
    """One shard: the label sets of the vertices it owns."""

    __slots__ = ("shard_id", "vertices", "entries", "requests")

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.vertices = 0
        self.entries = 0
        self.requests = 0

    def memory_bytes(self, entry_bytes: int) -> int:
        """Simulated resident size of this shard's labels."""
        return self.entries * entry_bytes


def out_labels_of(index, v: int):
    """``L_out(v)`` of any index view, whichever index kind it is.

    :class:`~repro.core.labels.ReachabilityIndex` exposes
    ``out_labels(v)``/``in_labels(v)`` methods; a live
    :class:`~repro.core.dynamic.DynamicReachabilityIndex` exposes plain
    lists of sets.  The stores and :class:`IndexBackend` all read
    through here and :func:`in_labels_of`, so updates to a dynamic
    index are visible at once.
    """
    labels = index.out_labels
    return labels[v] if isinstance(labels, list) else labels(v)


def in_labels_of(index, v: int):
    """``L_in(v)`` of any index view; see :func:`out_labels_of`."""
    labels = index.in_labels
    return labels[v] if isinstance(labels, list) else labels(v)


class ShardedLabelStore:
    """``L_in``/``L_out`` partitioned across shards, with fetch costs.

    Parameters
    ----------
    index:
        The finished (immutable) index to shard.  A live
        :class:`~repro.core.dynamic.DynamicReachabilityIndex` works
        too: labels are always read through the underlying object, so
        updates are visible immediately.
    num_shards:
        Number of label shards.
    partitioner:
        Vertex → shard mapping (default: the paper's
        :class:`HashPartitioner`); any
        :class:`~repro.graph.partition.Partitioner` with
        ``num_nodes == num_shards`` is accepted.
    cost_model:
        Charges fetches (``t_hop`` per remote shard touched plus
        ``entry_bytes · t_byte`` per label entry moved) and enforces
        the per-shard memory budget (``node_memory_bytes``).
    """

    def __init__(
        self,
        index,
        num_shards: int = 8,
        partitioner: Partitioner | None = None,
        cost_model: CostModel | None = None,
    ):
        if partitioner is None:
            partitioner = HashPartitioner(num_shards)
        if partitioner.num_nodes != num_shards:
            raise ValueError(
                f"partitioner maps onto {partitioner.num_nodes} shards, "
                f"expected {num_shards}"
            )
        self._index = index
        self.num_shards = num_shards
        self._partitioner = partitioner
        self._cost = cost_model or DEFAULT_COST_MODEL
        self.shards = [LabelShard(i) for i in range(num_shards)]
        n = index.num_vertices
        self._shard_of = [partitioner.node_of(v) for v in range(n)]
        for v in range(n):
            shard = self.shards[self._shard_of[v]]
            shard.vertices += 1
            shard.entries += len(out_labels_of(index, v)) + len(in_labels_of(index, v))
        budget = self._cost.node_memory_bytes
        for shard in self.shards:
            attempted = shard.memory_bytes(self._cost.entry_bytes)
            if attempted > budget:
                raise ShardOutOfMemoryError(
                    shard.shard_id,
                    attempted,
                    budget,
                    vertices=shard.vertices,
                    entries=shard.entries,
                )

    @property
    def num_vertices(self) -> int:
        """Vertices covered by the store."""
        return self._index.num_vertices

    def shard_of(self, v: int) -> int:
        """The shard owning vertex ``v``'s labels."""
        return self._shard_of[v]

    def memory_bytes(self) -> list[int]:
        """Per-shard simulated label bytes."""
        entry_bytes = self._cost.entry_bytes
        return [shard.memory_bytes(entry_bytes) for shard in self.shards]

    def shard_loads(self) -> list[int]:
        """Per-shard request counts since construction."""
        return [shard.requests for shard in self.shards]

    def load_skew(self) -> float:
        """Max/mean of per-shard request counts (1.0 = perfectly even)."""
        loads = self.shard_loads()
        total = sum(loads)
        if not total:
            return 1.0
        return max(loads) / (total / len(loads))

    def fetch(self, s: int, t: int) -> tuple[bool, float]:
        """Answer ``q(s, t)`` and return the simulated seconds it cost.

        The query executes at the *source's* shard (the router hashes
        on ``s``): ``L_out(s)`` is local, and when ``t`` lives on a
        different shard ``L_in(t)`` costs one serialized hop plus its
        entry bytes.  The sorted-merge itself is charged per entry
        compared, as in :class:`IndexBackend`.
        """
        cost = self._cost
        out_labels = out_labels_of(self._index, s)
        in_labels = in_labels_of(self._index, t)
        home = self._shard_of[s]
        target_shard = self._shard_of[t]
        self.shards[home].requests += 1
        seconds = (len(out_labels) + len(in_labels) + 1) * cost.t_op
        if target_shard != home:
            self.shards[target_shard].requests += 1
            seconds += cost.t_hop + len(in_labels) * cost.entry_bytes * cost.t_byte
        if tracing.ACTIVE is not None:
            attrs = {"home": home, "entries": len(out_labels) + len(in_labels)}
            if target_shard != home:
                attrs["remote"] = target_shard
            tracing.ACTIVE.add_stage("store", seconds, **attrs)
        return self._index.query(s, t), seconds


class ShardedIndexBackend:
    """:class:`~repro.serve.backends.QueryBackend` view of a store.

    Makes the store pluggable anywhere a backend is expected — the
    request pipeline, a :class:`~repro.serve.cache.CachingBackend`, or
    a :class:`~repro.serve.backends.FallbackBackend` primary.  With
    ``num_shards=k`` it is the labels-left-sharded alternative to
    collecting the index on one machine; with one shard it charges
    exactly what :class:`IndexBackend` does.
    """

    def __init__(self, store: ShardedLabelStore):
        self._store = store

    @property
    def store(self) -> ShardedLabelStore:
        """The underlying sharded store (for load/memory reports)."""
        return self._store

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        return self._store.fetch(s, t)


class IndexBackend:
    """The collected 2-hop index (§III-D): one sorted merge per query.

    Serves a finished :class:`~repro.core.labels.ReachabilityIndex` or
    a live :class:`~repro.core.dynamic.DynamicReachabilityIndex`, whose
    answers and costs then track every applied update.  The charge is
    one ``t_op`` per label entry compared, plus one.
    """

    def __init__(self, index, cost_model: CostModel | None = None):
        self._index = index
        self._t_op = (cost_model or DEFAULT_COST_MODEL).t_op

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        index = self._index
        units = len(out_labels_of(index, s)) + len(in_labels_of(index, t)) + 1
        return index.query(s, t), units * self._t_op
