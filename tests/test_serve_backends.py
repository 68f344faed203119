"""Tests for the query backends and the server as their front end."""

import pytest

from repro.baselines.bfl import build_bfl
from repro.baselines.grail import build_grail
from repro.baselines.online import OnlineSearcher
from repro.baselines.transitive_closure import TransitiveClosure
from repro.core.build import build_index
from repro.core.dynamic import DynamicReachabilityIndex
from repro.core.tol import tol_index
from repro.graph.digraph import DiGraph
from repro.graph.generators import social_graph
from repro.pregel.cost_model import CostModel
from repro.serve import (
    FallbackBackend,
    IndexBackend,
    MeteredBackend,
    QueryServer,
    ShardedIndexBackend,
    ShardedLabelStore,
)
from repro.workloads.queries import random_pairs
from repro.workloads.updates import apply_stream, update_stream

_NO_LIMIT = CostModel(time_limit_seconds=None)


@pytest.fixture(scope="module")
def graph():
    return social_graph(400, seed=2)


@pytest.fixture(scope="module")
def oracle(graph):
    return TransitiveClosure(graph)


@pytest.fixture(scope="module")
def pairs(graph):
    return random_pairs(graph.num_vertices, 300, seed=3)


def _backends(graph):
    index = build_index(graph, cost_model=_NO_LIMIT).index
    return {
        "index": IndexBackend(index, _NO_LIMIT),
        "dynamic index": IndexBackend(DynamicReachabilityIndex(graph), _NO_LIMIT),
        "sharded index": ShardedIndexBackend(
            ShardedLabelStore(index, num_shards=4, cost_model=_NO_LIMIT)
        ),
        "bfl": MeteredBackend(build_bfl(graph), _NO_LIMIT),
        "grail": MeteredBackend(build_grail(graph), _NO_LIMIT),
        "fallback": FallbackBackend(None, graph, _NO_LIMIT),
        "online": OnlineSearcher(graph, _NO_LIMIT),
    }


def test_all_backends_agree_with_oracle(graph, oracle, pairs):
    for name, backend in _backends(graph).items():
        for s, t in pairs[:150]:
            answer, seconds = backend.query_with_cost(s, t)
            assert answer == oracle.query(s, t), (name, s, t)
            assert seconds > 0, (name, s, t)


def test_server_report_statistics(graph, oracle, pairs):
    backend = _backends(graph)["index"]
    report = QueryServer(backend, cost_model=_NO_LIMIT).run_closed(
        pairs, clients=1
    )
    assert report.served == len(pairs)
    assert report.positives == sum(oracle.query(s, t) for s, t in pairs)
    assert 0 < report.mean_seconds
    assert report.p50_seconds <= report.p99_seconds <= report.p999_seconds
    assert report.p999_seconds <= report.max_seconds
    assert report.throughput > 0
    assert "served" in report.summary()


def test_online_search_is_slowest(graph, pairs):
    def mean_cost(backend):
        costs = [backend.query_with_cost(s, t)[1] for s, t in pairs[:100]]
        return sum(costs) / len(costs)

    means = {name: mean_cost(b) for name, b in _backends(graph).items()}
    assert means["online"] > means["index"]
    assert means["online"] > means["bfl"]
    assert means["online"] > means["grail"]


def test_empty_workload():
    server = QueryServer(OnlineSearcher(DiGraph(2, []), _NO_LIMIT))
    report = server.run_closed([], clients=1)
    assert report.served == 0
    assert report.throughput == 0.0
    assert report.p50_seconds == report.max_seconds == 0.0


# ----------------------------------------------------------------------
# IndexBackend over a live DynamicReachabilityIndex
# ----------------------------------------------------------------------
def test_index_backend_tracks_dynamic_updates(graph, pairs):
    dynamic = DynamicReachabilityIndex(graph)
    backend = IndexBackend(dynamic, _NO_LIMIT)
    stream = update_stream(graph, 30, seed=4)
    assert {op for op, _u, _v in stream} == {"insert", "delete"}
    apply_stream(dynamic, stream)
    fresh = tol_index(dynamic.current_graph(), dynamic.order)
    for s, t in pairs:
        answer, seconds = backend.query_with_cost(s, t)
        assert answer == fresh.query(s, t), (s, t)
        # The charge is read from the current labels, not a snapshot.
        units = len(fresh.out_labels(s)) + len(fresh.in_labels(t)) + 1
        assert seconds == pytest.approx(units * _NO_LIMIT.t_op), (s, t)


def test_index_backend_same_charge_for_both_index_kinds(graph, pairs):
    static = IndexBackend(tol_index(graph), _NO_LIMIT)
    dynamic = IndexBackend(DynamicReachabilityIndex(graph), _NO_LIMIT)
    for s, t in pairs:
        assert static.query_with_cost(s, t) == dynamic.query_with_cost(s, t)


# ----------------------------------------------------------------------
# FallbackBackend: degraded serving after a failed build
# ----------------------------------------------------------------------
def test_fallback_backend_degrades_to_online(graph, oracle, pairs):
    from repro.core.drl import drl_index

    doomed = CostModel(time_limit_seconds=1e-12)
    backend = FallbackBackend.from_build(
        graph,
        lambda: drl_index(graph, num_nodes=4, cost_model=doomed),
        cost_model=_NO_LIMIT,
    )
    assert backend.degraded
    for s, t in pairs[:100]:
        assert backend.query_with_cost(s, t)[0] == oracle.query(s, t), (s, t)
    assert backend.fallback_queries == 100


def test_fallback_backend_prefers_index(graph, oracle, pairs):
    from repro.core.drl import drl_index

    backend = FallbackBackend.from_build(
        graph,
        lambda: drl_index(graph, num_nodes=4, cost_model=_NO_LIMIT),
        cost_model=_NO_LIMIT,
    )
    assert not backend.degraded
    for s, t in pairs[:100]:
        assert backend.query_with_cost(s, t)[0] == oracle.query(s, t), (s, t)
    assert backend.fallback_queries == 0


def test_fallback_backend_counts_metric(graph):
    from repro.telemetry import session
    from repro.telemetry.sinks import InMemorySink

    backend = FallbackBackend(None, graph, _NO_LIMIT)
    sink = InMemorySink()
    with session([sink]):
        QueryServer(backend, cost_model=_NO_LIMIT).run_closed([(0, 1)])
    counters = {
        r["name"]: r["value"]
        for r in sink.metrics
        if r.get("metric") == "counter"
    }
    assert counters.get("query.fallback") == 1
    assert counters.get("serve.served") == 1


def test_fallback_backend_propagates_real_bugs(graph):
    def broken():
        raise RuntimeError("not a simulated-resource failure")

    with pytest.raises(RuntimeError):
        FallbackBackend.from_build(graph, broken)
