"""The benchmark's workloads: index builds, hot and cold reads, mixed writes.

Every workload makes its inputs from the seed, prepares the program
several times (``setup_s``, see :func:`_median_setup`), measures for at
least the requested seconds of wall clock, and checks the outputs
outside the timed region.  ``--trace 1`` runs the same work once
without and once with span wrappers (see :mod:`perfbench.trace`).

In-program telemetry stays off throughout; the checks assert it.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.build import build_index
from repro.core.dynamic import DynamicReachabilityIndex
from repro.core.labels import ReachabilityIndex
from repro.core.tol import tol_index
from repro.errors import ReproError
from repro.graph.generators import citation_graph, web_graph
from repro.graph.order import degree_order
from repro.serve.cache import CachingBackend, QueryCache
from repro.serve.mutation import MutationBackend
from repro.serve.pipeline import QueryServer
from repro.serve.replica import BoundedStalenessReplicator, ReplicatedLabelStore
from repro.serve.store import ShardedIndexBackend, ShardedLabelStore
from repro.telemetry import enabled as telemetry_enabled
from repro.workloads.traffic import ZipfSampler, poisson_arrivals, zipf_pairs
from repro.workloads.updates import mixed_update_stream

from perfbench import layers
from perfbench.reference import ReferenceJob
from perfbench.trace import Tracer, instrumented

clock = time.perf_counter

#: Preparations per run: setup_s is their median.  A build or mixed
#: preparation takes ~50 ms, a read preparation ~2 s.
SETUP_REPS = {"build": 15, "read": 3, "mixed": 15}
#: The reference job's median duration on the host the benchmark was
#: tuned on (a shared 2-CPU host, Python 3.11): setup_s is a
#: preparation's time in reference units times this, i.e. seconds at
#: that host's usual speed.
REF_NOMINAL_S = 0.022
#: mp engine workers: both cores of a 2-CPU host, one on a single core.
WORKERS = min(2, os.cpu_count() or 1)

BUILD_VERTICES = 4000
READ_VERTICES = 5000
SHARDS = 8
CACHE_CAPACITY = 65536
CLIENTS = 32
BATCH = 32
ZIPF_SKEW = 1.4
READ_CHUNK = 200_000
WARM_READS = CACHE_CAPACITY
TRACE_READS = 100_000
#: Distinct pairs are counted over this many leading reads.
DISTINCT_WINDOW = 500_000
MIXED_VERTICES = 600
MIXED_WRITES = 250
MIXED_READS = 5_000
MIXED_ROUNDS = 4
READ_RATE = 2_000_000.0
WRITE_RATE = 200_000.0
BFS_SAMPLE = 100

BUILD_METHOD = "drl-b"
#: build workload -> extra keyword arguments of build_index.
BUILDS = {
    "build_drlb_sim": {},
    "build_drlb_mp": {"engine": "mp", "workers": WORKERS, "node_timeline": True},
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit, clock)
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)  # name -> [passed, runs]
    sizes: dict = field(default_factory=dict)
    wall: dict = field(default_factory=dict)  # name -> (value, unit), not gated
    model_rows: list = field(default_factory=list)
    tracer: Tracer | None = None

    def check(self, name: str, ok: bool) -> None:
        tally = self.checks.setdefault(name, [0, 0])
        tally[0] += bool(ok)
        tally[1] += 1

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(p == n for p, n in self.checks.values())


def _ref_timed(job: ReferenceJob, run):
    """``(run(), wall seconds, reference seconds)``: the call is timed
    between two runs of the reference job, and the reference is their
    mean."""
    before = job.seconds()
    gc.collect()
    start = clock()
    result = run()
    wall = clock() - start
    return result, wall, (before + job.seconds()) / 2


def _median_setup(outcome: "Outcome", job: ReferenceJob, prepare, reps: int):
    """Run ``prepare`` ``reps`` times, each between reference jobs, and
    keep the last result.  Returns it with ``setup_s``: the median
    preparation in reference units, times :data:`REF_NOMINAL_S`.  The
    raw median wall time is printed beside it."""
    walls, scaled = [], []
    for _ in range(reps):
        result = None  # never hold two preparations at once
        result, wall, ref = _ref_timed(job, prepare)
        walls.append(wall)
        scaled.append(wall / ref * REF_NOMINAL_S)
    outcome.wall["setup_wall_s"] = (statistics.median(walls), "s")
    outcome.sizes["setup_reps"] = reps
    return result, statistics.median(scaled)


def _percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_fraction(samples: int) -> float:
    """p90 when the run has at least 100 operations (ten beyond it),
    else the median: a handful of builds supports no tail percentile.
    p99 is printed too but not gated: over 1,000 writes it rests on the
    ten slowest, and its spread between seeds reached 0.24 where that of
    p90 in reference units stayed below 0.08."""
    return 0.90 if samples >= 100 else 0.50


class Timings:
    """The timed blocks of one run.  Every block is timed between two
    runs of the reference job (:mod:`perfbench.reference`); an
    operation's wall time divided by the mean of the two is its time in
    reference units (``ref``)."""

    def __init__(self, job: ReferenceJob) -> None:
        self.job = job
        self.ops = 0
        self.wall = 0.0
        self.ref_units = 0.0
        self.latencies: list[float] = []  # wall seconds per operation
        self.latencies_ref: list[float] = []  # the same, in ref units
        self.refs: list[float] = []

    def timed(self, run, ops_of, latencies_of):
        """Time ``run()``; record ``ops_of(result)`` operations and the
        per-operation wall seconds ``latencies_of(result, wall)``."""
        result, wall, ref = _ref_timed(self.job, run)
        self.ops += ops_of(result)
        self.wall += wall
        self.ref_units += wall / ref
        self.refs.append(ref)
        latencies = latencies_of(result, wall)
        self.latencies.extend(latencies)
        self.latencies_ref.extend(latency / ref for latency in latencies)
        return result, wall


def _end_to_end(outcome: Outcome, setup_s: float, timings: Timings) -> None:
    samples = len(timings.latencies)
    tail = tail_fraction(samples)
    outcome.sizes["latency_samples"] = samples
    outcome.sizes["timed_blocks"] = len(timings.refs)
    outcome.sizes["tail_percentile"] = f"p{round(tail * 100)}"
    outcome.wall.update(
        ops_per_s=(timings.ops / timings.wall, "1/s"),
        op_ms_p50=(statistics.median(timings.latencies) * 1e3, "ms"),
        op_ms_tail=(_percentile(timings.latencies, tail) * 1e3, "ms"),
        reference_ms=(statistics.median(timings.refs) * 1e3, "ms"),
    )
    if samples >= 1000:
        outcome.wall["op_ms_p99"] = (_percentile(timings.latencies, 0.99) * 1e3, "ms")
    outcome.metrics.update(
        setup_s=(setup_s, "s", "wall/ref"),
        peak_rss_mb=(peak_rss_mb(), "MB", "-"),
        ops_per_ref=(timings.ops / timings.ref_units, "1/ref", "wall/ref"),
        op_ref_p50=(statistics.median(timings.latencies_ref), "ref", "wall/ref"),
        op_ref_tail=(_percentile(timings.latencies_ref, tail), "ref", "wall/ref"),
    )


# -- inputs ---------------------------------------------------------------
class ZipfStream:
    """The pairs of :func:`repro.workloads.traffic.zipf_pairs` drawn in
    chunks from the same two samplers, so every chunk shares one hot set
    (a fresh ``zipf_pairs`` call per chunk would permute it anew)."""

    def __init__(self, n: int, seed: int):
        self._sources = ZipfSampler(n, skew=ZIPF_SKEW, seed=seed)
        self._targets = ZipfSampler(n, skew=ZIPF_SKEW, seed=seed + 1)

    def draw(self, count: int) -> list[tuple[int, int]]:
        sources, targets = self._sources, self._targets
        return [(sources.sample(), targets.sample()) for _ in range(count)]


def uniform_stream(n: int, count: int, rng: random.Random):
    """``count`` uniform random pairs over ``0..n-1``."""
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def _reaches(graph, s: int, t: int) -> bool:
    """Plain BFS on the graph: the ground truth the index must match."""
    if s == t:
        return True
    seen = {s}
    queue = deque([s])
    while queue:
        for x in graph.out_neighbors(queue.popleft()):
            if x == t:
                return True
            if x not in seen:
                seen.add(x)
                queue.append(x)
    return False


def _bfs_agrees(graph, index, pairs) -> bool:
    return all(index.query(s, t) == _reaches(graph, s, t) for s, t in pairs)


def out_dir(root: Path) -> Path:
    """Where span files and scratch index files go (ignored by git)."""
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- builds ---------------------------------------------------------------
def run_build(name: str, seed: int, seconds: float, trace: bool, root: Path, job: ReferenceJob) -> Outcome:
    method, kwargs = BUILD_METHOD, BUILDS[name]
    engine = kwargs.get("engine", "sim")
    outcome = Outcome()

    def prepare():
        graph = citation_graph(BUILD_VERTICES, seed=seed)
        return graph, degree_order(graph)

    (graph, order), setup_s = _median_setup(outcome, job, prepare, SETUP_REPS["build"])
    expected = tol_index(graph, order)
    rng = random.Random(seed)
    sample = uniform_stream(graph.num_vertices, BFS_SAMPLE, rng)
    outcome.check("tol index agrees with BFS on sampled pairs", _bfs_agrees(graph, expected, sample))
    sim_reference = None
    if engine == "mp":
        sim_reference = build_index(graph, method, order=order)
        outcome.check(f"{method} sim index equals tol", sim_reference.index == expected)
    outcome.sizes.update(
        graph="citation", n=graph.num_vertices, m=graph.num_edges,
        label_entries=expected.num_entries, method=method, engine=engine,
        workers=kwargs.get("workers", 1),
    )

    def build_once(timings: Timings):
        """One timed build; checks run after the clock stops."""
        outcome.attempted += 1
        try:
            result, wall = timings.timed(
                lambda: build_index(graph, method, order=order, **kwargs),
                lambda _: 1,
                lambda _, wall: [wall],
            )
        except ReproError:
            outcome.failed += 1
            return None, 0.0
        outcome.check(f"{method}/{engine} index equals tol", result.index == expected)
        if sim_reference is not None:
            outcome.check(
                f"{method} simulated seconds equal between mp and sim",
                result.stats.simulated_seconds == sim_reference.stats.simulated_seconds,
            )
        return result, wall

    if not trace:
        timings = Timings(job)
        while timings.wall < seconds:
            result, _ = build_once(timings)
            if result is None:
                break
        if timings.ops:
            _end_to_end(outcome, setup_s, timings)
        return outcome

    # Untraced builds before and after the traced one: their mean is
    # the baseline the tracing overhead is measured against.
    _, before = build_once(Timings(job))
    tracer = Tracer()
    outcome.attempted += 1
    with instrumented(tracer):
        gc.collect()
        with tracer.span("bench") as bench:
            with tracer.span("core.build"):
                result = build_index(graph, method, order=order, **kwargs)
    outcome.check(f"traced {method}/{engine} index equals tol", result.index == expected)
    _, after = build_once(Timings(job))
    untraced = (before + after) / 2
    outcome.tracer = tracer
    layers.fill(outcome, tracer, bench, untraced, build_stats=result.stats)
    return outcome


# -- reads ----------------------------------------------------------------
class ReadStack:
    """graph → TOL build → save/load (v2) → sharded store → cache → server.

    The TOL build goes through ``build_index`` so that its cost-model
    seconds (``tol_stats``) sit beside its wall time in traced runs."""

    def __init__(self, seed: int, warm, scratch: Path):
        self.graph = citation_graph(READ_VERTICES, seed=seed)
        built = build_index(self.graph, "tol")
        self.built, self.tol_stats = built.index, built.stats
        path = scratch / f"read-{os.getpid()}.idx"
        try:
            self.built.save(path, compress=True)
            self.index = ReachabilityIndex.load(path)
        finally:
            path.unlink(missing_ok=True)
        self.store = ShardedLabelStore(self.index, num_shards=SHARDS)
        self.cache = QueryCache(CACHE_CAPACITY)
        # Batch boundaries: the pipeline calls on_advance before each
        # batch, so consecutive stamps bound one batch's wall time.
        self.stamps = array("d")
        self.server = QueryServer(
            CachingBackend(ShardedIndexBackend(self.store), self.cache),
            queue_depth=max(READ_CHUNK, WARM_READS, TRACE_READS),
            batch_size=BATCH,
            on_advance=lambda _clock: self.stamps.append(clock()),
        )
        self.server.run_closed(warm, clients=CLIENTS)

    def serve(self, pairs):
        """One closed-loop run; returns (report, wall seconds per batch)."""
        self.stamps = array("d")
        report = self.server.run_closed(pairs, clients=CLIENTS)
        edges = [*self.stamps, clock()]
        return report, [b - a for a, b in zip(edges, edges[1:])]


def run_read(name: str, seed: int, seconds: float, trace: bool, root: Path, job: ReferenceJob) -> Outcome:
    outcome = Outcome()
    scratch = out_dir(root)
    rng = random.Random(seed)
    hot = name == "read_hot"

    zipf = ZipfStream(READ_VERTICES, rng.randrange(2**31))

    def traffic(count: int):
        if hot:
            return zipf.draw(count)
        return uniform_stream(READ_VERTICES, count, rng)

    warm = traffic(WARM_READS)
    if trace:
        setup_tracer = Tracer()
        with instrumented(setup_tracer):
            with setup_tracer.span("setup"):
                stack = ReadStack(seed, warm, scratch)
    else:
        stack, setup_s = _median_setup(outcome, job, lambda: ReadStack(seed, warm, scratch), SETUP_REPS["read"])
    outcome.check("index survives save/load (v2)", stack.index == stack.built)
    outcome.check(
        "index agrees with BFS on sampled pairs",
        _bfs_agrees(stack.graph, stack.index, uniform_stream(READ_VERTICES, BFS_SAMPLE, rng)),
    )
    outcome.sizes.update(
        graph="citation", n=stack.graph.num_vertices, m=stack.graph.num_edges,
        label_entries=stack.index.num_entries, cache_capacity=CACHE_CAPACITY,
        traffic="zipf(1.4)" if hot else "uniform", clients=CLIENTS, shards=SHARDS,
    )

    def positives_match(report, pairs) -> bool:
        return report.positives == sum(stack.index.query(s, t) for s, t in pairs)

    def serve_counted(pairs, timings: Timings):
        (report, _), wall = timings.timed(
            lambda: stack.serve(pairs),
            lambda served: served[0].served,
            lambda served, _: served[1],
        )
        outcome.attempted += report.offered
        outcome.failed += report.offered - report.served  # shed, dropped, failed
        return report, wall

    if not trace:
        timings, distinct = Timings(job), set()
        hits0, lookups0 = stack.cache.hits, stack.cache.hits + stack.cache.misses
        while timings.wall < seconds:
            chunk = traffic(READ_CHUNK)
            report, _ = serve_counted(chunk, timings)
            if timings.ops == report.served:
                outcome.check("served positives equal raw index positives (first chunk)", positives_match(report, chunk))
            if timings.ops <= DISTINCT_WINDOW:
                distinct.update(chunk)
        hits = stack.cache.hits - hits0
        lookups = stack.cache.hits + stack.cache.misses - lookups0
        outcome.check("served positives equal raw index positives (last chunk)", positives_match(report, chunk))
        outcome.sizes.update(
            reads=timings.ops,
            distinct_pairs_in_first_reads=(len(distinct), min(timings.ops, DISTINCT_WINDOW)),
            hit_ratio=hits / lookups if lookups else 0.0,
        )
        _end_to_end(outcome, setup_s, timings)
        return outcome

    untraced_pairs = traffic(TRACE_READS)
    untraced_report, untraced_wall = serve_counted(untraced_pairs, Timings(job))
    outcome.check("served positives equal raw index positives", positives_match(untraced_report, untraced_pairs))
    gc.collect()
    start = clock()
    for s, t in untraced_pairs:
        stack.index.query(s, t)
    raw_wall = clock() - start
    traced_pairs = traffic(TRACE_READS)
    loads_before = sum(stack.store.shard_loads())
    hits0, misses0 = stack.cache.hits, stack.cache.misses
    tracer = Tracer()
    with instrumented(tracer) as inst:
        gc.collect()
        with tracer.span("bench") as bench:
            report = stack.server.run_closed(traced_pairs, clients=CLIENTS)
    outcome.attempted += report.offered
    outcome.failed += report.offered - report.served
    outcome.check("traced positives equal raw index positives", positives_match(report, traced_pairs))
    outcome.tracer = tracer
    layers.fill(
        outcome, tracer, bench, untraced_wall,
        read_report=report,
        read_untraced=(untraced_report, untraced_wall, raw_wall, len(untraced_pairs)),
        cache_lookups=(stack.cache.hits - hits0, stack.cache.misses - misses0),
        store_loads=sum(stack.store.shard_loads()) - loads_before,
        label_pairs=inst.query_pairs,
        label_index=stack.index,
        setup_tracer=setup_tracer,
        tol_stats=stack.tol_stats,
    )
    return outcome


# -- mixed reads and writes -----------------------------------------------
class MixedStack:
    """Writable leader + one follower group, cache on the leader."""

    def __init__(self, graph):
        self.leader = DynamicReachabilityIndex(graph)
        self.replicator = BoundedStalenessReplicator(self.leader, num_replicas=2)
        self.store = ReplicatedLabelStore(
            self.leader, num_shards=SHARDS, replicas=2, replicator=self.replicator
        )
        self.cache = QueryCache(CACHE_CAPACITY)
        self.cache.attach(self.leader)
        self.mutations = MutationBackend(self.leader, replicator=self.replicator)
        self.server = QueryServer(
            CachingBackend(ShardedIndexBackend(self.store), self.cache),
            queue_depth=MIXED_READS + MIXED_WRITES,
            batch_size=BATCH,
            on_advance=self.store.advance,
            mutation_backend=self.mutations,
        )
        # Client-side write timing: one perf_counter pair per call.
        self.write_walls: list[float] = []
        self.write_model: list[float] = []
        apply = self.mutations.apply_with_cost
        walls, model = self.write_walls, self.write_model

        def timed_apply(op, u, v, at=0.0):
            start = clock()
            status, seconds = apply(op, u, v, at=at)
            walls.append(clock() - start)
            model.append(seconds)
            return status, seconds

        self.mutations.apply_with_cost = timed_apply

    def run(self, traffic):
        """run_mixed plus the final follower catch-up."""
        report = self.server.run_mixed(*traffic)
        self.replicator.catch_up(1)
        return report


def _mixed_round(seed: int):
    """The graph seed and (reads, read times, writes, write times) of
    one mixed round."""
    graph = web_graph(MIXED_VERTICES, seed=seed)
    rng = random.Random(seed)
    writes = mixed_update_stream(
        graph, MIXED_WRITES, insert_ratio=0.6, node_ratio=0.1,
        promote_ratio=0.05, seed=rng.randrange(2**31),
    )
    return graph, (
        zipf_pairs(graph.num_vertices, MIXED_READS, seed=rng.randrange(2**31), skew=ZIPF_SKEW),
        poisson_arrivals(MIXED_READS, READ_RATE, seed=rng.randrange(2**31)),
        writes,
        poisson_arrivals(MIXED_WRITES, WRITE_RATE, seed=rng.randrange(2**31)),
    )


def run_mixed(name: str, seed: int, seconds: float, trace: bool, root: Path, job: ReferenceJob) -> Outcome:
    outcome = Outcome()
    # Each round runs on its own graph and write stream: the insert and
    # delete costs depend on the graph, so one graph per run would make
    # the seed the largest source of spread.
    round_seeds = random.Random(seed)
    op_counts: dict[str, int] = {}

    def next_round():
        round_seed = round_seeds.randrange(2**31)
        graph, traffic = _mixed_round(round_seed)
        for op, _, _ in traffic[2]:
            op_counts[op] = op_counts.get(op, 0) + 1
        return round_seed, graph, traffic

    def prepare(round_seed: int) -> MixedStack:
        return MixedStack(web_graph(MIXED_VERTICES, seed=round_seed))

    def count(report):
        outcome.attempted += report.offered + report.mutations_offered
        outcome.failed += report.offered - report.served  # shed, dropped, failed
        outcome.failed += report.mutations_rejected + report.mutations_shed

    def run_checked(stack, traffic, timings: Timings):
        report, wall = timings.timed(
            lambda: stack.run(traffic),
            lambda report: report.mutations_applied,
            lambda _, __: stack.write_walls,
        )
        count(report)
        leader = stack.leader
        snapshot = leader.snapshot()
        outcome.check(
            "leader snapshot equals tol_index(current_graph, order)",
            snapshot == tol_index(leader.current_graph(), leader.order),
        )
        outcome.check("follower equals leader", stack.replicator.view(1).snapshot() == snapshot)
        outcome.check(
            "every write applied or a no-op",
            report.mutations_applied + report.mutations_noop == len(traffic[2]),
        )
        return report, wall

    def every_write_exact(round_seed: int, writes) -> bool:
        """Replay a round's writes on a fresh leader: after each one the
        labels must equal a rebuild.  A later delete's full rebuild can
        hide an earlier wrong write from the end-of-round check."""
        leader = DynamicReachabilityIndex(web_graph(MIXED_VERTICES, seed=round_seed))
        backend = MutationBackend(leader)
        for op, u, v in writes:
            backend.apply_with_cost(op, u, v)
            if leader.snapshot() != tol_index(leader.current_graph(), leader.order):
                return False
        return True

    round_seed, graph, traffic = next_round()
    outcome.check("first round: labels exact after every write", every_write_exact(round_seed, traffic[2]))
    outcome.sizes.update(
        graph="web", n=graph.num_vertices, m=graph.num_edges,
        reads_per_round=MIXED_READS, writes_per_round=MIXED_WRITES,
        cache_capacity=CACHE_CAPACITY, replica_groups=2,
    )
    if not trace:
        stack, setup_s = _median_setup(outcome, job, lambda: prepare(round_seed), SETUP_REPS["mixed"])
        outcome.sizes["label_entries"] = stack.leader.snapshot().num_entries
        timings, rounds = Timings(job), 0
        while True:
            run_checked(stack, traffic, timings)
            rounds += 1
            if rounds >= MIXED_ROUNDS and timings.wall >= seconds:
                break
            round_seed, _, traffic = next_round()
            stack = prepare(round_seed)
        outcome.sizes.update(rounds=rounds, write_ops=op_counts, applied_writes=timings.ops)
        _end_to_end(outcome, setup_s, timings)
        return outcome

    _, untraced_wall = run_checked(prepare(round_seed), traffic, Timings(job))
    tracer = Tracer()
    with instrumented(tracer):
        stack = prepare(round_seed)
        gc.collect()
        with tracer.span("bench") as bench:
            report = stack.run(traffic)
    count(report)
    outcome.check("traced follower equals leader", stack.replicator.view(1).snapshot() == stack.leader.snapshot())
    outcome.tracer = tracer
    layers.fill(
        outcome, tracer, bench, untraced_wall,
        read_report=report,
        cache_lookups=(report.cache_hits, report.cache_misses),
        store_loads=sum(stack.store.shard_loads()),
        invalidated=stack.cache.invalidated,
        write_model=stack.write_model,
    )
    return outcome


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> Outcome:
    if telemetry_enabled():
        raise RuntimeError("in-program telemetry must be off while benchmarking")
    job = ReferenceJob()
    if name in BUILDS:
        outcome = run_build(name, seed, seconds, trace, root, job)
    elif name in ("read_hot", "read_cold"):
        outcome = run_read(name, seed, seconds, trace, root, job)
    elif name == "mixed":
        outcome = run_mixed(name, seed, seconds, trace, root, job)
    else:
        raise KeyError(name)
    outcome.check("in-program telemetry stayed off", not telemetry_enabled())
    return outcome


WORKLOADS = (*BUILDS, "read_hot", "read_cold", "mixed")
