"""Tests for the sharded label store."""

import pytest

from repro.baselines.transitive_closure import TransitiveClosure
from repro.core.build import build_index
from repro.errors import OutOfMemoryError, ShardOutOfMemoryError
from repro.graph.generators import social_graph
from repro.graph.partition import (
    HashPartitioner,
    ModuloPartitioner,
    RangePartitioner,
)
from repro.pregel.cost_model import CostModel
from repro.serve import (
    FallbackBackend,
    QueryServer,
    ShardedIndexBackend,
    ShardedLabelStore,
)
from repro.workloads.queries import random_pairs

_NO_LIMIT = CostModel(time_limit_seconds=None)


@pytest.fixture(scope="module")
def graph():
    return social_graph(300, seed=5)


@pytest.fixture(scope="module")
def index(graph):
    return build_index(graph, cost_model=_NO_LIMIT).index


def test_answers_match_oracle(graph, index):
    oracle = TransitiveClosure(graph)
    store = ShardedLabelStore(index, num_shards=4, cost_model=_NO_LIMIT)
    for s, t in random_pairs(graph.num_vertices, 200, seed=11):
        answer, seconds = store.fetch(s, t)
        assert answer == oracle.query(s, t)
        assert seconds > 0


def test_shard_routing_follows_partitioner(index):
    partitioner = ModuloPartitioner(4)
    store = ShardedLabelStore(
        index, num_shards=4, partitioner=partitioner, cost_model=_NO_LIMIT
    )
    for v in range(index.num_vertices):
        assert store.shard_of(v) == partitioner.node_of(v)


def test_partitioner_shard_count_mismatch_rejected(index):
    with pytest.raises(ValueError, match="shards"):
        ShardedLabelStore(
            index, num_shards=4, partitioner=HashPartitioner(8),
            cost_model=_NO_LIMIT,
        )


def test_memory_accounting_sums_to_index_size(index):
    store = ShardedLabelStore(index, num_shards=4, cost_model=_NO_LIMIT)
    assert sum(store.memory_bytes()) == index.size_bytes(_NO_LIMIT.entry_bytes)
    assert sum(shard.vertices for shard in store.shards) == index.num_vertices


def test_per_shard_memory_budget_enforced(index):
    tiny = CostModel(node_memory_bytes=8, time_limit_seconds=None)
    with pytest.raises(OutOfMemoryError):
        ShardedLabelStore(index, num_shards=2, cost_model=tiny)


def test_shard_oom_names_the_shard_and_the_numbers(index):
    tiny = CostModel(node_memory_bytes=8, time_limit_seconds=None)
    with pytest.raises(ShardOutOfMemoryError) as excinfo:
        ShardedLabelStore(index, num_shards=2, cost_model=tiny)
    err = excinfo.value
    # Still catchable as the generic budget error.
    assert isinstance(err, OutOfMemoryError)
    assert err.shard_id in (0, 1)
    assert err.budget_bytes == 8
    assert err.attempted_bytes > err.budget_bytes
    message = str(err)
    assert f"label shard {err.shard_id}" in message
    assert f"{err.attempted_bytes:,}" in message
    assert "the per-shard budget is 8 bytes" in message
    assert "rebalance the partitioner or add shards" in message


def test_cross_shard_fetch_costs_more_than_local(index):
    # Range partitioning puts low ids on shard 0, high ids on shard 1:
    # co-located pairs pay merge cost only, split pairs add the hop.
    n = index.num_vertices
    store = ShardedLabelStore(
        index,
        num_shards=2,
        partitioner=RangePartitioner(2, n),
        cost_model=_NO_LIMIT,
    )
    s, local_t, remote_t = 0, 1, n - 1
    assert store.shard_of(s) == store.shard_of(local_t)
    assert store.shard_of(s) != store.shard_of(remote_t)
    _, local_cost = store.fetch(s, local_t)
    _, remote_cost = store.fetch(s, remote_t)
    extra = remote_cost - local_cost
    merge_delta = (
        abs(len(index.in_labels(remote_t)) - len(index.in_labels(local_t)))
        * _NO_LIMIT.t_op
    )
    assert extra >= _NO_LIMIT.t_hop - merge_delta


def test_load_accounting_and_skew(index):
    store = ShardedLabelStore(index, num_shards=4, cost_model=_NO_LIMIT)
    assert store.load_skew() == 1.0  # no requests yet
    for s, t in random_pairs(index.num_vertices, 500, seed=3):
        store.fetch(s, t)
    loads = store.shard_loads()
    assert sum(loads) >= 500  # every query touches at least the home shard
    assert store.load_skew() >= 1.0


def test_backend_protocol_and_service_integration(graph, index):
    backend = ShardedIndexBackend(
        ShardedLabelStore(index, num_shards=4, cost_model=_NO_LIMIT)
    )
    report = QueryServer(backend, cost_model=_NO_LIMIT).run_closed(
        random_pairs(graph.num_vertices, 100, seed=1)
    )
    assert report.served == 100
    assert report.makespan_seconds > 0
    assert backend.store.shard_loads() != [0, 0, 0, 0]


def test_store_as_fallback_primary(graph, index):
    # The store plugs into the degradation ladder like any backend.
    primary = ShardedIndexBackend(
        ShardedLabelStore(index, num_shards=4, cost_model=_NO_LIMIT)
    )
    fallback = FallbackBackend(primary, graph, _NO_LIMIT)
    assert not fallback.degraded
    oracle = TransitiveClosure(graph)
    for s, t in random_pairs(graph.num_vertices, 50, seed=9):
        answer, _ = fallback.query_with_cost(s, t)
        assert answer == oracle.query(s, t)


def test_label_accessors_read_static_and_dynamic_indexes(graph, index):
    from repro.core.dynamic import DynamicReachabilityIndex
    from repro.serve.store import in_labels_of, out_labels_of

    dynamic = DynamicReachabilityIndex(graph)
    for v in range(0, graph.num_vertices, 7):
        assert list(out_labels_of(index, v)) == sorted(out_labels_of(dynamic, v))
        assert list(in_labels_of(index, v)) == sorted(in_labels_of(dynamic, v))
