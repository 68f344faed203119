"""Per-layer metrics of a traced run, derived from its spans.

Every workload reports every metric below; a layer the workload does
not load reads 0.  Units name the clock: ``s``/``ms``/``us`` are wall
clock, ``sim_s``/``sim_us`` the cost model's simulated clock, and
``wall/sim`` their ratio.  ``_us`` read metrics are microseconds per
served read, so the read layers add up to the wall time per read.
"""

from __future__ import annotations

import statistics

from perfbench.trace import DYNAMIC_SPANS, LAYERS, Tracer, layer_of

#: (name, unit) of every per-layer metric, in print order.
PER_LAYER = (
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.other_s", "s"),
    ("trace.spans", "count"),
    *((f"self.{layer}_s", "s") for layer in LAYERS),
    ("core.drl.compute_s", "s"),
    ("pregel.send_s", "s"),
    ("pregel.messages", "count"),
    ("core.drl.barrier_s", "s"),
    ("core.drl.finalize_s", "s"),
    ("pregel.engine_self_s", "s"),
    ("pregel.runs", "count"),
    ("pregel.mp.worker_busy_s", "s"),
    ("pregel.mp.worker_wait_s", "s"),
    ("pregel.mp.master_s", "s"),
    ("core.labels.collect_s", "s"),
    ("core.drl_batch.fold_s", "s"),
    ("pregel.model_s", "sim_s"),
    ("pregel.model_compute_s", "sim_s"),
    ("pregel.model_comm_s", "sim_s"),
    ("pregel.wall_over_model", "wall/sim"),
    ("serve.pipeline.self_us", "us"),
    ("serve.cache.self_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.batches", "count"),
    ("serve.store.self_us", "us"),
    ("serve.store.remote_share", "ratio"),
    ("core.labels.query_us", "us"),
    ("core.labels.entries_per_query", "count"),
    ("core.labels.load_s", "s"),
    ("core.tol.model_s", "sim_s"),
    ("core.tol.wall_over_model", "wall/sim"),
    ("serve.overhead_ratio", "ratio"),
    ("serve.model_us", "sim_us"),
    ("serve.wall_over_model", "wall/sim"),
    *((f"core.dynamic.{op}_ms_p50", "ms") for op in DYNAMIC_SPANS.values()),
    ("core.dynamic.rebuilds", "count"),
    ("core.dynamic.rebuild_s", "s"),
    ("serve.replica.replay_s", "s"),
    ("serve.replica.replayed_ops", "count"),
    ("serve.mutation.self_ms", "ms"),
    ("serve.cache.invalidated", "count"),
    ("serve.mutation.model_s", "sim_s"),
    ("serve.mutation.wall_over_model", "wall/sim"),
)

_UNIT = dict(PER_LAYER)


def _clock(unit: str) -> str:
    if unit.startswith("sim"):
        return "sim"
    if unit in ("s", "ms", "us"):
        return "wall"
    return "wall/sim" if unit == "wall/sim" else "-"


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _worker_critical_path(stats) -> tuple[float, float, float]:
    """(slowest-worker seconds summed over supersteps, total worker busy
    seconds, total worker wait seconds) from an mp run's timeline.  Every
    superstep records one slice per worker, in worker order."""
    timeline = stats.node_timeline
    if timeline is None:
        return 0.0, 0.0, 0.0
    slices = timeline.slices
    workers = timeline.num_nodes
    critical = sum(
        max(piece.compute_seconds for piece in slices[i:i + workers])
        for i in range(0, len(slices), workers)
    )
    busy = sum(piece.compute_seconds for piece in slices)
    wait = sum(piece.barrier_wait_seconds for piece in slices)
    return critical, busy, wait


def fill(
    outcome,
    tracer: Tracer,
    root: int,
    untraced_wall: float,
    build_stats=None,
    read_report=None,
    read_untraced=None,
    cache_lookups=(0, 0),
    store_loads: int = 0,
    label_pairs=(),
    label_index=None,
    setup_tracer: Tracer | None = None,
    tol_stats=None,
    invalidated: int = 0,
    write_model=(),
) -> None:
    """Put every :data:`PER_LAYER` metric into ``outcome.metrics`` and
    the wall-vs-model rows into ``outcome.model_rows``."""
    values = dict.fromkeys(_UNIT, 0.0)
    dur = tracer.durations()
    own = tracer.self_times()
    inside = tracer.descendants_of(root)
    by_name: dict[str, list[int]] = {}
    for i in inside:
        by_name.setdefault(tracer.name_at(i), []).append(i)

    def total(name: str) -> float:
        return sum(dur[i] for i in by_name.get(name, ()))

    def self_total(name: str) -> float:
        return sum(own[i] for i in by_name.get(name, ()))

    wall = dur[root]
    layer_self: dict[str, float] = {}
    for i in inside:
        layer = layer_of(tracer.name_at(i))
        layer_self[layer] = layer_self.get(layer, 0.0) + own[i]
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_share"] = _ratio(wall - untraced_wall, untraced_wall)
    values["trace.other_s"] = own[root]
    values["trace.spans"] = len(inside) + 1

    # -- pregel and the builders ---------------------------------------
    critical = busy = wait = 0.0
    if build_stats is not None:
        critical, busy, wait = _worker_critical_path(build_stats)
        values["pregel.messages"] = build_stats.local_messages + build_stats.remote_messages
        values["pregel.model_s"] = build_stats.simulated_seconds
        values["pregel.model_compute_s"] = build_stats.computation_seconds
        values["pregel.model_comm_s"] = build_stats.communication_seconds
        values["pregel.wall_over_model"] = _ratio(total("pregel.run"), build_stats.simulated_seconds)
    layer_self["pregel.run"] = layer_self.get("pregel.run", 0.0) - critical
    layer_self["pregel.mp.workers"] = critical
    for layer, seconds in layer_self.items():
        if f"self.{layer}_s" not in values:
            raise RuntimeError(f"span layer {layer!r} is missing from LAYERS")
        values[f"self.{layer}_s"] = seconds
    values["core.drl.compute_s"] = self_total("core.drl.compute")
    values["pregel.send_s"] = total("pregel.send")
    values["core.drl.barrier_s"] = total("core.drl.barrier")
    values["core.drl.finalize_s"] = total("core.drl.finalize")
    values["pregel.engine_self_s"] = self_total("pregel.run")
    values["pregel.runs"] = len(by_name.get("pregel.run", ()))
    values["pregel.mp.worker_busy_s"] = busy
    values["pregel.mp.worker_wait_s"] = wait
    if critical:
        values["pregel.mp.master_s"] = total("pregel.run") - critical
    values["core.labels.collect_s"] = total("core.labels.collect")
    values["core.drl_batch.fold_s"] = self_total("core.drl_batch")

    # -- the read path ---------------------------------------------------
    if read_report is not None:
        served = read_report.served
        values["serve.pipeline.self_us"] = _ratio(self_total("serve.pipeline"), served) * 1e6
        values["serve.cache.self_us"] = _ratio(self_total("serve.cache"), served) * 1e6
        values["serve.store.self_us"] = _ratio(self_total("serve.store"), served) * 1e6
        values["core.labels.query_us"] = _ratio(total("core.labels.query"), served) * 1e6
        hits, misses = cache_lookups
        values["serve.cache.hit_ratio"] = _ratio(hits, hits + misses)
        values["serve.batches"] = read_report.batches
        fetches = len(by_name.get("serve.store", ()))
        if store_loads:
            values["serve.store.remote_share"] = _ratio(store_loads - fetches, fetches)
    if label_index is not None and label_pairs:
        entries = sum(
            len(label_index.out_labels(label_pairs[k])) + len(label_index.in_labels(label_pairs[k + 1]))
            for k in range(0, len(label_pairs), 2)
        )
        values["core.labels.entries_per_query"] = entries / (len(label_pairs) // 2)
    tol_wall = 0.0
    if setup_tracer is not None:
        setup_dur = setup_tracer.durations()
        values["core.labels.load_s"] = sum(setup_dur[i] for i in setup_tracer.spans_named("core.labels.load"))
        tol_wall = sum(setup_dur[i] for i in setup_tracer.spans_named("core.tol"))
    if tol_stats is not None:
        values["core.tol.model_s"] = tol_stats.simulated_seconds
        values["core.tol.wall_over_model"] = _ratio(tol_wall, tol_stats.simulated_seconds)
    if read_untraced is not None:
        report, untraced, raw_wall, count = read_untraced
        per_read = _ratio(untraced, report.served)
        model_per_read = _ratio(report.makespan_seconds, report.served)
        values["serve.overhead_ratio"] = _ratio(per_read, raw_wall / count)
        values["serve.model_us"] = model_per_read * 1e6
        values["serve.wall_over_model"] = _ratio(per_read, model_per_read)

    # -- the write path --------------------------------------------------
    if write_model:
        leader_ops: dict[str, list[float]] = {}
        rebuilds = []
        replayed = 0
        for i in inside:
            name = tracer.name_at(i)
            if name in DYNAMIC_SPANS:
                parent = tracer.name_at(tracer.parent[i])
                if parent == "serve.mutation":
                    leader_ops.setdefault(DYNAMIC_SPANS[name], []).append(dur[i])
                elif parent == "serve.replica":
                    replayed += 1
            elif name == "core.tol" and any(
                tracer.name_at(a) in DYNAMIC_SPANS for a in tracer.ancestors(i)
            ):
                rebuilds.append(dur[i])
        for op, walls in leader_ops.items():
            values[f"core.dynamic.{op}_ms_p50"] = statistics.median(walls) * 1e3
        values["core.dynamic.rebuilds"] = len(rebuilds)
        values["core.dynamic.rebuild_s"] = sum(rebuilds)
        values["serve.replica.replay_s"] = total("serve.replica")
        values["serve.replica.replayed_ops"] = replayed
        values["serve.mutation.self_ms"] = _ratio(self_total("serve.mutation"), len(write_model)) * 1e3
        values["serve.cache.invalidated"] = invalidated
        values["serve.mutation.model_s"] = sum(write_model)
        values["serve.mutation.wall_over_model"] = _ratio(total("serve.mutation"), sum(write_model))

    for name, value in values.items():
        unit = _UNIT[name]
        outcome.metrics[name] = (value, unit, _clock(unit))

    # Wall beside model, per layer that has a cost model.
    if values["pregel.model_s"]:
        outcome.model_rows.append(("pregel (Cluster.run)", total("pregel.run"), values["pregel.model_s"]))
    if values["core.tol.model_s"]:
        outcome.model_rows.append(("core.tol (index build in setup)", tol_wall, values["core.tol.model_s"]))
    if values["serve.model_us"]:
        outcome.model_rows.append(
            ("serve (per read, untraced)", values["serve.model_us"] * values["serve.wall_over_model"] / 1e6,
             values["serve.model_us"] / 1e6)
        )
    if values["serve.mutation.model_s"]:
        outcome.model_rows.append(("serve.mutation", total("serve.mutation"), values["serve.mutation.model_s"]))

    # The sum holds by construction (self times telescope to the root's
    # duration); a wrong split shows as a negative self time instead.
    shares = [values[f"self.{layer}_s"] for layer in LAYERS] + [values["trace.other_s"]]
    outcome.check("layer self times plus other add up to the traced wall", abs(sum(shares) - wall) <= 1e-6 * max(1.0, wall))
    outcome.check("no layer self time is negative", min(shares) >= -1e-9)
    outcome.check("every span was closed", all(tracer.end[i] > 0.0 for i in (root, *inside)))
