"""Query backends beyond the 2-hop label views in :mod:`~repro.serve.store`.

Every serving layer speaks one protocol, :class:`QueryBackend`: a
``query_with_cost(s, t)`` returning the answer and its simulated
seconds.  :class:`~repro.serve.pipeline.QueryServer` is the one front
end that drives it; the adapters here wrap what is not a label store:

- :class:`MeteredBackend` — an index whose ``query(s, t, meter=)``
  charges a :class:`~repro.pregel.serial.SerialMeter` (BFL, GRAIL);
- :class:`FallbackBackend` — serve from the index, or degrade to
  online BFS when the build died;
- :class:`AuditingBackend` — record every answer the server returns.

Index-free search needs no adapter: an
:class:`~repro.baselines.online.OnlineSearcher` already has
``query_with_cost``.
"""

from __future__ import annotations

from typing import Protocol

from repro.baselines.online import OnlineSearcher
from repro.graph.digraph import DiGraph
from repro.observe import tracing
from repro.pregel.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.pregel.serial import SerialMeter
from repro.serve.store import IndexBackend
from repro.telemetry import current_metrics, enabled


class QueryBackend(Protocol):
    """Anything that answers a reachability query with a cost."""

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        """Returns ``(answer, simulated seconds)``."""
        ...  # pragma: no cover


class MeteredBackend:
    """An index whose ``query(s, t, meter=)`` charges a serial meter.

    BFL^C (label tests plus occasional pruned search) and GRAIL
    (interval tests plus occasional pruned search) both qualify; each
    query is charged what its meter counted, with no time limit.
    """

    def __init__(self, index, cost_model: CostModel | None = None):
        self._index = index
        self._cost = cost_model or DEFAULT_COST_MODEL

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        meter = SerialMeter(self._cost.with_time_limit(None))
        answer = self._index.query(s, t, meter=meter)
        return answer, meter.simulated_seconds


class FallbackBackend:
    """Serve from the index when it exists, fall back to BFS otherwise.

    Degraded-mode serving for a cluster whose index build died (crash
    without checkpointing, out-of-memory, cut-off): queries keep being
    answered — via :class:`~repro.baselines.online.OnlineSearcher`
    traversal of the raw graph — just slower.  Every fallback-served
    query increments the ``query.fallback`` counter so operators can
    see the degradation.

    Use :meth:`from_build` to construct one directly from a build
    attempt: a successful build serves from the index, a build that
    raised a :class:`~repro.errors.ReproError` serves from the graph.
    """

    def __init__(
        self,
        primary: QueryBackend | None,
        graph: DiGraph,
        cost_model: CostModel | None = None,
    ):
        self._primary = primary
        self._fallback = OnlineSearcher(graph, cost_model or DEFAULT_COST_MODEL)
        self.fallback_queries = 0

    @classmethod
    def from_build(
        cls,
        graph: DiGraph,
        builder,
        cost_model: CostModel | None = None,
    ) -> "FallbackBackend":
        """Run ``builder()`` (returning an index-bearing result or a
        bare index) and wrap whatever survives.

        Build failures signalled by a :class:`~repro.errors.ReproError`
        (time limit, memory, super-step limit) degrade to online BFS;
        other exceptions are bugs and propagate.
        """
        from repro.errors import ReproError

        try:
            built = builder()
        except ReproError:
            return cls(None, graph, cost_model)
        index = getattr(built, "index", built)
        return cls(IndexBackend(index, cost_model), graph, cost_model)

    @property
    def degraded(self) -> bool:
        """True when serving BFS fallbacks instead of the index."""
        return self._primary is None

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        if self._primary is not None:
            return self._primary.query_with_cost(s, t)
        self.fallback_queries += 1
        if enabled():
            current_metrics().counter("query.fallback").inc()
        answer, seconds = self._fallback.query_with_cost(s, t)
        if tracing.ACTIVE is not None:
            tracing.ACTIVE.add_stage("fallback", seconds)
        return answer, seconds


class AuditingBackend:
    """Records ``(version, s, t, answer)`` for every served query.

    Wraps the outermost backend so whatever answer the server is about
    to return — cached, replicated, confirmed, anything — is what gets
    audited.  ``version_of()`` reports the leader index's current
    update count, so the post-run oracle knows exactly which graph each
    answer was served against.
    """

    def __init__(self, inner, version_of):
        self.inner = inner
        self._version_of = version_of
        self.records: list[tuple[int, int, int, bool]] = []

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        answer, seconds = self.inner.query_with_cost(s, t)
        self.records.append((self._version_of(), s, t, answer))
        return answer, seconds
