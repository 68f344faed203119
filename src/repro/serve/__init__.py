"""``repro.serve`` — the high-throughput query-serving layer.

The paper builds the index; this subsystem *serves* it, and
:class:`QueryServer` is its one query front end.  The pieces, bottom
to top:

- :mod:`~repro.serve.store` — the 2-hop label views: the collected
  index (:class:`IndexBackend`, §III-D) and ``L_in``/``L_out`` sharded
  across N shards via the :mod:`repro.graph.partition` partitioners,
  with per-shard memory accounting and cross-shard fetch costs charged
  through the :class:`~repro.pregel.cost_model.CostModel`;
- :mod:`~repro.serve.backends` — the :class:`QueryBackend` protocol
  and the adapters that are not label views: metered BFL/GRAIL
  queries, the online-BFS :class:`FallbackBackend`, and the
  answer-recording :class:`AuditingBackend`;
- :mod:`~repro.serve.cache` — an LRU result cache (optional negative
  caching) whose invalidation hooks subscribe to
  :class:`~repro.core.dynamic.DynamicReachabilityIndex` updates, so
  no stale answer survives an edge insert/delete;
- :mod:`~repro.serve.replica` — N replicas per shard with read
  fan-out policies (primary / round-robin / hedged), health checking
  with failover, and bounded-staleness replication of dynamic updates
  guarded so a lagging replica never returns an incorrect answer;
- :mod:`~repro.serve.faults` — serve-side fault schedules (replica
  crash / slow replica / recovery) replayed mid-traffic by a
  :class:`ServeFaultInjector`;
- :mod:`~repro.serve.mutation` — the write path: a
  :class:`MutationBackend` applies graph mutations (edge and node ops,
  order upgrades) to the leader index with simulated costs, so writes
  ride the same admission queue as reads (``docs/dynamic.md``);
- :mod:`~repro.serve.pipeline` — the serving loop: bounded admission
  queue (overflow sheds), request batching, deadline drops, mixed
  read/write runs (:meth:`QueryServer.run_mixed`), and graceful
  degradation via :class:`FallbackBackend`;
- :mod:`~repro.serve.bench` — the ``repro serve-bench`` runner that
  replays a Zipf/Poisson workload cached and uncached and renders one
  baseline-gateable table.

Architecture, the degradation ladder, and a metrics glossary live in
``docs/serving.md``.
"""

from repro.serve.backends import (
    AuditingBackend,
    FallbackBackend,
    MeteredBackend,
    QueryBackend,
)
from repro.serve.bench import (
    COLUMNS,
    MIXED_COLUMNS,
    caching_speedup,
    run_mixed_serve_bench,
    run_serve_bench,
)
from repro.serve.cache import CachingBackend, QueryCache
from repro.serve.faults import (
    ReplicaCrash,
    ReplicaRecovery,
    ReplicaSlow,
    ServeFaultInjector,
    ServeFaultPlan,
    ServeFaultSpecError,
)
from repro.serve.mutation import MUTATION_OPS, MutationBackend
from repro.serve.pipeline import QueryServer, ServeReport
from repro.serve.replica import (
    BoundedStalenessReplicator,
    HealthPolicy,
    READ_POLICIES,
    ReplicaSet,
    ReplicaState,
    ReplicatedLabelStore,
)
from repro.serve.store import (
    IndexBackend,
    LabelShard,
    ShardedIndexBackend,
    ShardedLabelStore,
)

__all__ = [
    "AuditingBackend",
    "BoundedStalenessReplicator",
    "COLUMNS",
    "MIXED_COLUMNS",
    "MUTATION_OPS",
    "MutationBackend",
    "CachingBackend",
    "FallbackBackend",
    "HealthPolicy",
    "IndexBackend",
    "LabelShard",
    "MeteredBackend",
    "QueryBackend",
    "QueryCache",
    "QueryServer",
    "READ_POLICIES",
    "ReplicaCrash",
    "ReplicaRecovery",
    "ReplicaSet",
    "ReplicaSlow",
    "ReplicaState",
    "ReplicatedLabelStore",
    "ServeFaultInjector",
    "ServeFaultPlan",
    "ServeFaultSpecError",
    "ServeReport",
    "ShardedIndexBackend",
    "ShardedLabelStore",
    "caching_speedup",
    "run_mixed_serve_bench",
    "run_serve_bench",
]
