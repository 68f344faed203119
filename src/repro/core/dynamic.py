"""Dynamic maintenance of the TOL index under online updates.

The paper defers "maintaining indexes on distributed dynamic graphs" to
future work but inherits the setting from TOL (Zhu et al., SIGMOD'14),
whose index is explicitly designed for dynamic graphs.  This module
provides a *centralized* dynamic index with exact semantics:

**The vertex order is explicit at all times** (TOL's total-order
approach): after every applied update,
:meth:`DynamicReachabilityIndex.snapshot` is guaranteed equal to
``tol_index(current_graph(), order)`` for the *current* order.  The
order changes only through two operations — :meth:`add_node` appends
the new vertex at the tail, and :meth:`promote` moves one vertex
hub-ward (TOL's "butterfly" rewrite) — so "the TOL index" stays
well-defined throughout.

Update algorithms
-----------------
Every edge and node write goes through one **dirty-hub replay**.  By
Theorem 1, ``x ∈ L_in(w)`` exactly when ``x`` is the highest-order
vertex on all walks ``x → w``, so a write can move hub ``x``'s entries
only if one of ``x``'s pruned BFSs (its forward or backward TOL round)
crossed a changed edge (a *seed*: ``x`` holds the edge's tail and
outranks its head, or the mirror image) or if an entry that the
round's domination tests read flipped under it.  Dirty rounds are
popped from a min-heap on rank; each is rerun exactly as in
:func:`repro.core.tol.tol_index`, its old coverage is walked through
the vertices that hold ``x``, and the symmetric difference is applied.
Every flip enqueues the lower hubs' rounds that read the flipped
entry, so by induction on rank order every round is exact once it is
popped, and a round never enqueued is the same as before.  No write
rebuilds; :attr:`DynamicReachabilityIndex.last_repair` counts the hubs
replayed and vertices visited.

*Node addition* appends a fresh vertex id at the **tail of the order**
(lowest priority).  An isolated tail vertex provably costs nothing:
its TOL round reaches only itself, and no other round can reach it, so
its labels are exactly ``{v}``/``{v}`` and every other label set is
untouched.

*Node deletion* removes every incident edge at once (one replay seeded
by all of them, not one per edge) and leaves the id behind as an
isolated **tombstone** whose labels are ``{v}``/``{v}`` — ids are never
recycled, so shard maps, caches, and replicas keyed by vertex id stay
valid.  Mutating a tombstone raises; querying one is permitted (it is
simply isolated).

*Order upgrade* (:meth:`promote`) is the TOL butterfly rewrite: moving
``v`` from rank ``r_old`` up to ``r_new < r_old`` can only (a) *grow*
``v``'s own coverage (fewer dominators once ``v`` outranks the band it
jumped), and (b) *invalidate* entries of the **band** hubs ``h`` it
overtook where ``h → v → w`` now routes through the higher hub ``v``;
every other entry is exactly as before.  So the rewrite is one pair of
full pruned BFSs from ``v`` under the new order (the grow side) plus a
band-restricted domination sweep (the shrink side) — no rebuild.

When constructed with a ``drift_threshold``, the index watches how far
each updated vertex's *degree rank* (its position under the paper's
``(d_in+1)·(d_out+1)`` order on **current** degrees) has drifted above
its frozen rank, and promotes it automatically once the drift exceeds
the threshold — the online answer to "the construction-time order goes
stale as the graph evolves and labels fatten".
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import chain
from typing import Iterable, NamedTuple

from repro.core.labels import ReachabilityIndex
from repro.graph.digraph import DiGraph
from repro.graph.order import VertexOrder, degree_order

#: Update operations a :class:`DynamicReachabilityIndex` can apply and
#: notify listeners about, in ``(op, u, v)`` shape.  For ``add_node``
#: and ``delete_node`` both payload slots carry the vertex id; for
#: ``promote`` the payload is ``(vertex, new_rank)``.
UPDATE_OPS = ("insert", "delete", "add_node", "delete_node", "promote")


class RepairWork(NamedTuple):
    """Work counted by one write's dirty-hub replay."""

    hubs: int  # hubs with at least one TOL round rerun
    visited: int  # vertices those rounds and old-coverage walks visited


class DynamicReachabilityIndex:
    """A TOL index that stays exact under online graph updates.

    Parameters
    ----------
    graph:
        Initial graph; its edges seed the mutable adjacency.
    order:
        Initial total order (defaults to the *initial* graph's degree
        order).  It changes only via :meth:`add_node` (tail append) and
        :meth:`promote` (hub-ward move); :attr:`order` always exposes
        the current one.
    drift_threshold:
        When set, every applied edge update checks its endpoints'
        degree-rank drift (:meth:`drift`) and promotes a vertex whose
        frozen rank lags its current degree rank by more than this many
        positions.  ``None`` (the default) disables automatic upgrades;
        :meth:`promote` stays available either way.
    """

    def __init__(
        self,
        graph: DiGraph,
        order: VertexOrder | None = None,
        drift_threshold: int | None = None,
    ):
        if order is None:
            order = degree_order(graph)
        if len(order) != graph.num_vertices:
            raise ValueError("order does not cover the graph's vertices")
        if drift_threshold is not None and drift_threshold < 1:
            raise ValueError("drift_threshold must be >= 1 (or None)")
        n = graph.num_vertices
        self._n = n
        self._rank = order.ranks
        self._order = order
        self._drift_threshold = drift_threshold
        self._alive = [True] * n
        self._out_adj: list[set[int]] = [set() for _ in range(n)]
        self._in_adj: list[set[int]] = [set() for _ in range(n)]
        for a, b in graph.edges():
            self._out_adj[a].add(b)
            self._in_adj[b].add(a)
        # Label sets: in_labels[w] = L_in(w), out_labels[w] = L_out(w).
        self.in_labels: list[set[int]] = [set() for _ in range(n)]
        self.out_labels: list[set[int]] = [set() for _ in range(n)]
        self._listeners: list = []
        self._last_repair = RepairWork(0, 0)
        self._rebuild()

    # ------------------------------------------------------------------
    # Queries and views
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertex ids, tombstones included (grows with
        :meth:`add_node`, never shrinks)."""
        return self._n

    @property
    def order(self) -> VertexOrder:
        """The current total order the index is exact under.

        Exposed so external checkers (``repro.fuzz`` oracles, tests)
        can rebuild the reference ``tol_index(current_graph(), order)``
        the snapshot contract promises equality with.  Reread it after
        :meth:`add_node` / :meth:`promote` — both replace it.
        """
        return self._order

    @property
    def num_edges(self) -> int:
        """Current number of edges."""
        return sum(len(adj) for adj in self._out_adj)

    def is_alive(self, v: int) -> bool:
        """True while ``v`` exists and was not deleted."""
        return 0 <= v < self._n and self._alive[v]

    def alive_vertices(self) -> list[int]:
        """Vertex ids currently alive (ascending)."""
        return [v for v in range(self._n) if self._alive[v]]

    def has_edge(self, u: int, v: int) -> bool:
        """True if the edge ``(u, v)`` is currently present."""
        return v in self._out_adj[u]

    def edges(self) -> Iterable[tuple[int, int]]:
        """Iterate over the current edges."""
        for u in range(self._n):
            for v in sorted(self._out_adj[u]):
                yield u, v

    def query(self, s: int, t: int) -> bool:
        """``q(s, t)`` on the current graph.

        Tombstoned vertices are permitted: they are isolated, so every
        query involving one answers ``False`` (or ``True`` for
        ``q(v, v)``), matching the transitive closure of
        :meth:`current_graph`.
        """
        a, b = self.out_labels[s], self.in_labels[t]
        if len(b) < len(a):
            a, b = b, a
        return any(h in b for h in a)

    @property
    def last_repair(self) -> RepairWork:
        """Counted work of the latest edge or node write: hubs replayed
        and vertices visited (zero for :meth:`add_node`, which replays
        nothing)."""
        return self._last_repair

    def snapshot(self) -> ReachabilityIndex:
        """An immutable copy of the current (exact TOL) index."""
        return ReachabilityIndex.from_label_lists(self.in_labels, self.out_labels)

    def current_graph(self) -> DiGraph:
        """The current graph as an immutable :class:`DiGraph`.

        Tombstoned ids are present as isolated vertices — the id space
        is dense and never recycled.
        """
        return DiGraph(self._n, list(self.edges()))

    # ------------------------------------------------------------------
    # Update hooks
    # ------------------------------------------------------------------
    def subscribe(self, listener) -> None:
        """Register ``listener(op, u, v)`` to run after every *applied*
        update (``op`` is one of :data:`UPDATE_OPS`).

        Listeners fire only when the update actually applied — e.g.
        inserting a present edge is a no-op and stays silent.  They run
        only after the label sets are consistent again (every write
        settles its replay before notifying), so a
        listener may query the index or take a snapshot.  This is the
        invalidation hook the serving layer's
        :class:`~repro.serve.QueryCache` and the replication op log
        attach to (see ``docs/dynamic.md``).  For ``promote`` the
        payload is ``(vertex, new_rank)``; for node ops both slots
        carry the vertex id.
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener) -> None:
        """Remove a previously registered listener."""
        self._listeners.remove(listener)

    def _notify(self, op: str, u: int, v: int) -> None:
        for listener in self._listeners:
            listener(op, u, v)

    def apply(self, op: str, u: int, v: int):
        """Apply one ``(op, u, v)`` update of any :data:`UPDATE_OPS` kind
        and return what its method returns.

        ``add_node`` ignores the payload (ids are assigned densely, so
        replaying a log in order reproduces them); ``promote`` takes
        ``v`` as the target rank, a negative one meaning the vertex's
        degree rank.  Raises ``ValueError`` for an unknown op.
        """
        if op == "insert":
            return self.insert_edge(u, v)
        if op == "delete":
            return self.delete_edge(u, v)
        if op == "add_node":
            return self.add_node()
        if op == "delete_node":
            return self.delete_node(u)
        if op == "promote":
            return self.promote(u, v)
        raise ValueError(f"unknown update op {op!r}")

    # ------------------------------------------------------------------
    # Edge updates
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> bool:
        """Insert ``(u, v)``; returns False if it was already present.

        Self-loops are rejected (they never affect reachability).
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("self-loops do not affect reachability")
        if v in self._out_adj[u]:
            return False
        seeds = self._seeds(u, v)
        self._out_adj[u].add(v)
        self._in_adj[v].add(u)
        self._replay(seeds)
        self._notify("insert", u, v)
        self._check_drift(u, v)
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete ``(u, v)``; returns False if it was not present."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._out_adj[u]:
            return False
        seeds = self._seeds(u, v)
        self._out_adj[u].discard(v)
        self._in_adj[v].discard(u)
        self._replay(seeds, [(u, v)])
        self._notify("delete", u, v)
        self._check_drift(u, v)
        return True

    # ------------------------------------------------------------------
    # Dirty-hub replay (the one repair path; see docs/dynamic.md)
    # ------------------------------------------------------------------
    def _seeds(self, a: int, b: int) -> set[tuple[int, int]]:
        """The rounds that cross the edge ``(a, b)``, as ``(hub,
        direction)`` pairs (0 forward, 1 backward): the forward rounds
        of holders of ``a`` and the backward rounds of holders of ``b``
        that may step over it.  Read on the labels *before* the
        adjacency changes."""
        rank = self._rank
        return {(x, 0) for x in self.in_labels[a] if rank[b] > rank[x]} | {
            (x, 1) for x in self.out_labels[b] if rank[a] > rank[x]
        }

    def _replay(
        self,
        seeds: set[tuple[int, int]],
        removed: Iterable[tuple[int, int]] = (),
    ) -> None:
        """Rerun every dirty round, highest-order hub first, and apply
        the difference between its old and new coverage.

        A round is dirty when it is a seed or when an entry it tested
        flipped: a flip of ``x ∈ L_in(w)`` dirties both rounds of ``w``
        (they test ``L_in(w)`` at the root and as the backward source)
        and the forward round of every ``y ∈ L_in(p)``, ``p → w``, with
        ``x ∈ L_out(y)`` (it tests ``x`` at ``w``); ``L_out`` flips
        mirror this.  Dependents always rank below the hub that flipped,
        so each round is replayed at most once, after every hub above
        it has settled.
        """
        rank = self._rank
        gone_out: dict[int, list[int]] = {}
        gone_in: dict[int, list[int]] = {}
        for a, b in removed:
            gone_out.setdefault(a, []).append(b)
            gone_in.setdefault(b, []).append(a)
        directions = (
            (self._out_adj, self._in_adj, gone_out, self.in_labels, self.out_labels),
            (self._in_adj, self._out_adj, gone_in, self.out_labels, self.in_labels),
        )
        queued = set(seeds)
        heap = [(rank[x], d, x) for x, d in queued]
        heapq.heapify(heap)
        visited = 0
        while heap:
            _, d, x = heapq.heappop(heap)
            adjacency, back, gone, labels, reverse = directions[d]
            old = self._holders(x, adjacency, gone, labels)
            new, seen = self._pruned_bfs(x, adjacency, labels, reverse)
            visited += len(old) + seen
            for w in old ^ new:
                labels[w] ^= {x}
                dependents = [(w, 0), (w, 1)]
                dependents += [
                    (y, d) for p in back[w] for y in labels[p] if x in reverse[y]
                ]
                for y, e in dependents:
                    if (y, e) not in queued:
                        queued.add((y, e))
                        heapq.heappush(heap, (rank[y], e, y))
        self._last_repair = RepairWork(len({x for x, _ in queued}), visited)

    def _holders(
        self,
        x: int,
        adjacency: list[set[int]],
        gone: dict[int, list[int]],
        labels: list[set[int]],
    ) -> set[int]:
        """Every vertex holding ``x`` before its replay: the old pruned
        BFS tree, walked from ``x`` through holders over the old edges
        (today's plus the removed ones) — no scan of all vertices."""
        if x not in labels[x]:
            return set()  # x was dominated at itself: it labels nothing
        held = {x}
        queue = [x]
        for w in queue:
            for y in chain(adjacency[w], gone.get(w, ())):
                if y not in held and x in labels[y]:
                    held.add(y)
                    queue.append(y)
        return held

    def _pruned_bfs(
        self,
        x: int,
        adjacency: list[set[int]],
        labels: list[set[int]],
        reverse_labels: list[set[int]],
    ) -> tuple[set[int], int]:
        """One direction of ``x``'s TOL round, as in
        ``tol._label_one_direction``: the vertices ``x`` labels under
        the current graph and higher hubs, and how many it visited.

        Only strictly higher hubs count in the domination test, and
        expansion stops at a dominated vertex.
        """
        rank = self._rank
        x_rank = rank[x]
        higher = {h for h in reverse_labels[x] if rank[h] < x_rank}
        covered = set()
        seen = {x}
        queue = [x]
        for w in queue:
            if not higher.isdisjoint(labels[w]):
                continue  # a higher hub h has x -> h -> w
            covered.add(w)
            for y in adjacency[w]:
                if y not in seen and rank[y] > x_rank:
                    seen.add(y)
                    queue.append(y)
        return covered, len(seen)

    # ------------------------------------------------------------------
    # Node-level updates
    # ------------------------------------------------------------------
    def add_node(self) -> int:
        """Add an isolated vertex; returns its id (always ``num_vertices``
        before the call — ids are assigned densely and never recycled).

        The new vertex joins at the **tail of the order** (lowest
        priority), which keeps the index exact for free: its own TOL
        round reaches only itself and no earlier round can reach it, so
        its labels are exactly ``{v}``/``{v}`` and nothing else moves.
        """
        v = self._n
        self._n += 1
        self._alive.append(True)
        self._out_adj.append(set())
        self._in_adj.append(set())
        self.in_labels.append({v})
        self.out_labels.append({v})
        self._order = VertexOrder(list(self._order.by_rank()) + [v])
        self._rank = self._order.ranks
        self._last_repair = RepairWork(0, 0)
        self._notify("add_node", v, v)
        return v

    def delete_node(self, v: int) -> bool:
        """Delete ``v``: remove every incident edge, tombstone the id.

        The id stays in the (dense) id space as an isolated vertex with
        labels ``{v}``/``{v}``, so ``snapshot()`` remains byte-equal to
        ``tol_index(current_graph(), order)`` and downstream consumers
        keyed by vertex id (shard maps, caches, replicas) need no
        remapping.  Further mutations of ``v`` raise; queries just see
        an isolated vertex.  Listeners observe one ``delete_node``
        notification, not one per removed edge.
        """
        self._check_vertex(v)
        # One replay covers every incident edge; v's own rounds are
        # seeded too, since they shrink to {v}.
        removed = [(v, x) for x in self._out_adj[v]]
        removed += [(x, v) for x in self._in_adj[v]]
        seeds = {(v, 0), (v, 1)}.union(*(self._seeds(a, b) for a, b in removed))
        for x in self._out_adj[v]:
            self._in_adj[x].discard(v)
        for x in self._in_adj[v]:
            self._out_adj[x].discard(v)
        self._out_adj[v].clear()
        self._in_adj[v].clear()
        self._alive[v] = False
        self._replay(seeds, removed)
        self._notify("delete_node", v, v)
        return True

    # ------------------------------------------------------------------
    # Order upgrades (the TOL butterfly rewrite)
    # ------------------------------------------------------------------
    def promote(self, v: int, new_rank: int | None = None) -> int | None:
        """Move ``v`` hub-ward to ``new_rank`` and rewrite the labels.

        ``new_rank`` defaults to ``v``'s current *degree rank* (its
        position under the paper's degree order on current degrees).
        Promotions only move up: when the target rank is not above the
        current one this is a silent no-op returning ``None``;
        otherwise the applied rank is returned and listeners see
        ``("promote", v, new_rank)``.

        The rewrite exploits that a single hub-ward move changes the
        exact index in only two ways: ``v``'s own entries grow (it lost
        dominators), and entries of the **band** hubs it overtook can
        die where ``v`` now dominates them (``h → v → w``).  So: shift
        the order, run one full pruned BFS pair from ``v`` under the
        new ranks, then sweep band entries through the standard
        domination test.  Every other entry is provably untouched.
        """
        self._check_vertex(v)
        if new_rank is None or new_rank < 0:
            new_rank = self._ideal_rank(v)
        old_rank = self._rank[v]
        if new_rank >= old_rank:
            return None
        by_rank = list(self._order.by_rank())
        del by_rank[old_rank]
        by_rank.insert(new_rank, v)
        self._order = VertexOrder(by_rank)
        self._rank = self._order.ranks
        # The band: hubs v overtook (their rank shifted down by one).
        band = set(by_rank[new_rank + 1 : old_rank + 1])

        # Grow side: v's coverage under the new order.  A fresh pruned
        # BFS pair is exact here because every domination witness it
        # consults involves hubs still above v, whose entries are
        # unchanged by the move.
        for adjacency, labels, reverse in (
            (self._out_adj, self.in_labels, self.out_labels),
            (self._in_adj, self.out_labels, self.in_labels),
        ):
            for w in self._pruned_bfs(v, adjacency, labels, reverse)[0]:
                labels[w].add(v)

        # Shrink side: only entries (h, w) with h in the band and
        # h → v → w can have died, and for each the exact index holds a
        # higher-order witness pair that the domination test finds in
        # the (sound superset) label sets.
        forward_cone = self._plain_bfs(v, self._out_adj)
        backward_cone = self._plain_bfs(v, self._in_adj)
        for w in forward_cone:
            for a in [x for x in self.in_labels[w] if x in band and x in backward_cone]:
                if self._dominated(a, w, self.in_labels, self.out_labels):
                    self.in_labels[w].discard(a)
        for w in backward_cone:
            for b in [x for x in self.out_labels[w] if x in band and x in forward_cone]:
                if self._dominated(b, w, self.out_labels, self.in_labels):
                    self.out_labels[w].discard(b)
        self._notify("promote", v, new_rank)
        return new_rank

    def _dominated(self, hub, w, labels, reverse_labels) -> bool:
        """Is there an indexed higher-order hub ``h`` with
        ``hub → h → w`` (forward sense)?  Sound witnesses suffice."""
        hub_rank = self._rank[hub]
        a, b = reverse_labels[hub], labels[w]
        if len(b) < len(a):
            a, b = b, a
        return any(self._rank[h] < hub_rank and h in b for h in a)

    def drift(self, v: int) -> int:
        """How many positions ``v``'s frozen rank lags its degree rank.

        Positive drift means the order undervalues ``v`` (its degrees
        grew since the order froze); automatic upgrades fire when this
        exceeds the configured ``drift_threshold``.
        """
        self._check_vertex(v)
        return self._rank[v] - self._ideal_rank(v)

    def _degree_key(self, v: int) -> tuple[int, int]:
        """The paper's order key on *current* degrees (larger = higher
        priority; ids break ties exactly as :func:`degree_order`)."""
        return (
            (len(self._in_adj[v]) + 1) * (len(self._out_adj[v]) + 1),
            v,
        )

    def _ideal_rank(self, v: int) -> int:
        """``v``'s rank under the degree order on current degrees."""
        key = self._degree_key(v)
        return sum(
            1 for w in range(self._n) if w != v and self._degree_key(w) > key
        )

    def _check_drift(self, *vertices: int) -> None:
        """Auto-promote updated endpoints whose drift crossed the
        threshold (no-op without a ``drift_threshold``)."""
        if self._drift_threshold is None:
            return
        for v in vertices:
            if self._alive[v] and self.drift(v) > self._drift_threshold:
                self.promote(v)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} out of range [0, {self._n})")
        if not self._alive[v]:
            raise ValueError(f"vertex {v} was deleted")

    def _plain_bfs(self, source: int, adjacency: list[set[int]]) -> set[int]:
        visited = {source}
        queue = deque([source])
        while queue:
            w = queue.popleft()
            for x in adjacency[w]:
                if x not in visited:
                    visited.add(x)
                    queue.append(x)
        return visited

    def _rebuild(self) -> None:
        """Compute every label from scratch (construction only)."""
        from repro.core.tol import tol_index

        index = tol_index(self.current_graph(), self._order)
        for w in range(self._n):
            self.in_labels[w] = set(index.in_labels(w))
            self.out_labels[w] = set(index.out_labels(w))
