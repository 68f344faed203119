"""Wall-clock benchmark of index builds, hot and cold reads, and mixed writes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics (tracing off); ``--trace 1``
runs the same work untraced and then traced, and reports per-layer
metrics derived from the spans.  A human-readable report goes to
stdout first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when any correctness check failed and 2 when the program under
test cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program() -> bool:
    """Put the checkout's ``src/`` first on the path; True when the
    ``repro`` package loads from there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT))
    import repro

    return Path(repro.__file__).resolve().is_relative_to(src)


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


#: What each workload's generic end-to-end metrics mean, by the names
#: the performance issues use.
ALIASES = {
    "build_drlb_sim": {"op_ms_p50": "build_drlb_sim_s (in ms)"},
    "build_drlb_mp": {"op_ms_p50": "build_drlb_mp_s (in ms)"},
    "read_hot": {"ops_per_s": "read_qps", "op_ms_p50": "one batch of 32 reads"},
    "read_cold": {"ops_per_s": "read_qps", "op_ms_p50": "one batch of 32 reads"},
    "mixed": {
        "ops_per_s": "update_ups",
        "op_ms_p50": "write_ms_p50",
        "op_ms_tail": "write_ms_p90",
        "op_ms_p99": "write_ms_p99",
    },
}


def _report(workload: str, outcome, trace: bool) -> None:
    print(f"workload {workload}  ({'traced' if trace else 'untraced'} run)")
    print("sizes: " + ", ".join(f"{k}={v}" for k, v in outcome.sizes.items()))
    attempted, failed = outcome.attempted, outcome.failed
    share = failed / attempted if attempted else 0.0
    print(f"operations: attempted={attempted} failed={failed} fail_share={share:.6f}")
    print(f"{'metric':<34} {'value':>16} {'unit':<9} {'clock':<9} also known as")
    aliases = ALIASES.get(workload, {})
    for name, (value, unit, clock) in outcome.metrics.items():
        print(f"{name:<34} {value:>16.6g} {unit:<9} {clock:<9}")
    for name, (value, unit) in outcome.wall.items():
        print(f"{name:<34} {value:>16.6g} {unit:<9} {'wall':<9} {aliases.get(name, '')}")
    if outcome.model_rows:
        print(f"{'layer: wall vs cost model':<34} {'wall s':>12} {'sim s':>12} {'wall/sim':>10}")
        for layer, wall, sim in outcome.model_rows:
            print(f"{layer:<34} {wall:>12.6g} {sim:>12.6g} {wall / sim:>10.4g}")
    for name, (passed, runs) in outcome.checks.items():
        print(f"check {'ok  ' if passed == runs else 'FAIL'} {passed}/{runs} {name}")


def _stop_helpers() -> None:
    """Stop and reap every process the multiprocessing module started.

    The mp engine joins its forked workers, but its shared-memory
    segments start the resource tracker, a helper process that would
    otherwise outlive this one.  Closing the tracker's pipe ends it;
    ``_stop`` then waits for it.
    """
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is None:
        return
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not _import_program():
        print(f"error: the repro package was not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS, out_dir, run_workload

    declared = _declared()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    if outcome.tracer is not None:
        outcome.tracer.write(out_dir(ROOT) / f"spans-{args.workload}-seed{args.seed}.bin")
    _report(args.workload, outcome, bool(args.trace))

    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    produced = {name: unit for name, (_, unit, _) in outcome.metrics.items()}
    if produced != wanted:
        print(f"error: metrics {sorted(produced)} do not match BENCHMARK.json {sorted(wanted)}", file=sys.stderr)
        return 2
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _stop_helpers()
    sys.exit(code)
