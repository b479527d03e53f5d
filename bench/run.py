"""heistri benchmark: one workload per process, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones (see README.md).  Temporary files and
traces go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_ROUNDS = 3      # set-up is repeated and its median reported
MIN_OK = 100          # successful operations per run, so p90 has ten beyond it
MIN_OK_TRACED = 20    # per half of a traced run


def import_heistri():
    """Import heistri afresh from the checkout's src/ (part of every set-up round)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "heistri" or m.startswith("heistri.")]:
        del sys.modules[name]
    heistri = importlib.import_module("heistri")
    importlib.import_module("heistri.cli")
    if Path(heistri.__file__).resolve().parent != SRC / "heistri":
        raise ImportError(f"heistri was imported from {heistri.__file__}, not from {SRC}")
    return heistri


def set_up(workload_cls, seed, workdir):
    """One set-up round: a fresh import, the inputs built with the program, a warm-up round."""
    workload = workload_cls(import_heistri(), seed, workdir)
    for i in range(workload.round_size):
        workload.run(i)
    gc.collect()
    return workload


def timed_phase(workload, seconds, min_ok, first_op, tracer=None):
    """Run whole rounds until `seconds` of operation time and `min_ok` successes."""
    out = {"latencies": [], "attempted": 0, "failed": 0, "errors": [], "busy": 0.0,
           "figures": [], "next_op": first_op}
    i = first_op
    while out["busy"] < seconds or len(out["latencies"]) < min_ok:
        for _ in range(workload.round_size):
            mark = tracer.begin(i) if tracer else None
            start = time.perf_counter()
            result = workload.run(i)
            elapsed = time.perf_counter() - start
            figures = tracer.end(mark) if tracer else None
            failed, errors = workload.check(i, result)
            out["busy"] += elapsed
            out["attempted"] += 1
            out["errors"] += errors
            if failed:
                out["failed"] += 1
            else:
                out["latencies"].append(elapsed)
                if figures is not None:
                    out["figures"].append(figures)
            i += 1
    out["next_op"] = i
    return out


def p50_ms(latencies):
    return statistics.median(latencies) * 1e3


def end_to_end(phase, setup_s):
    lat = phase["latencies"]
    return {
        "ops_per_s": {"value": len(lat) / phase["busy"], "unit": "1/s"},
        "op_p50_ms": {"value": p50_ms(lat), "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(lat, n=10)[8] * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def traced(workload, seconds, min_ok, trace_path):
    """An untraced half, then a traced half; per-layer metrics and the overhead."""
    from tracing import Tracer, mean_figures, op_metric_names

    min_ok = min(min_ok, MIN_OK_TRACED)
    plain = timed_phase(workload, seconds / 2, min_ok, 0)
    tracer = Tracer()
    tracer.patch()
    try:
        spans = timed_phase(workload, seconds / 2, min_ok, plain["next_op"], tracer)
    finally:
        tracer.unpatch()
    if trace_path is not None:
        tracer.write(trace_path, {"workload": workload.name})

    metrics = mean_figures(spans["figures"], op_metric_names(), tracer.available)
    untraced_p50, traced_p50 = p50_ms(plain["latencies"]), p50_ms(spans["latencies"])
    metrics["trace.ops"] = {"value": len(spans["latencies"]), "unit": "count"}
    metrics["trace.untraced_op_p50_ms"] = {"value": untraced_p50, "unit": "ms"}
    metrics["trace.op_p50_ms"] = {"value": traced_p50, "unit": "ms"}
    metrics["trace.overhead_ms"] = {"value": traced_p50 - untraced_p50, "unit": "ms"}
    for key in ("attempted", "failed", "errors"):
        spans[key] += plain[key]
    return spans, metrics


def measure(name, seed, seconds, trace, *, min_ok=MIN_OK, setup_rounds=SETUP_ROUNDS,
            import_s=0.0, trace_path=None):
    """One benchmark run in this process; returns the result object."""
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        rounds = []
        for _ in range(setup_rounds):
            workload = None  # drop the previous round's inputs first
            start = time.perf_counter()
            workload = set_up(workload_cls, seed, workdir)
            rounds.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(rounds)
        if trace:
            phase, metrics = traced(workload, seconds, min_ok, trace_path)
        else:
            phase = timed_phase(workload, seconds, min_ok, 0)
            metrics = end_to_end(phase, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in phase["errors"][:5]:
        print(f"check failed: {line}", file=sys.stderr)
    return {"correct": not phase["errors"], "attempted": phase["attempted"],
            "failed": phase["failed"], "metrics": metrics}


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="heistri benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heistri" / "__init__.py").is_file():
        print(f"error: no heistri sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Set-up starts with the imports so far, numpy's among them (workloads
    # imports it).  They happen once per process, so they are timed once.
    import_s = time.perf_counter() - T_START
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json" if args.trace else None
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     import_s=import_s, trace_path=trace_path)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # Pin string hashing and leave the worker-thread switch unset, then
    # restart in place (same process, no child) so both hold from the start.
    if os.environ.get("PYTHONHASHSEED") != "0" or "HEISTRI_THREADS" in os.environ:
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("HEISTRI_THREADS", None)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    sys.exit(main())
