#!/usr/bin/env python3
"""Run one sphereflow benchmark workload and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload verify|construct|exact \\
        --seed N --seconds S --trace 0|1

The workload runs in this one process and thread, pass after pass, until
``--seconds`` have been spent (at least one pass).  Every operation's
answer is checked, outside its timed span.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
of fifteen fresh interpreters, each timed from spawn to the end of its
set-up (imports, loading and checking the inputs).

``--trace 1`` runs the passes traced and reports the per-layer metrics.
Beside them it runs the untraced benchmark in a second interpreter, so
both sides start from a fresh process and run under the same machine
load; the tracing overhead is the traced ``wall_s`` minus the untraced
one.  Spans are written to ``.bench_trace/`` at the end.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PROBES = 15

# Per-layer metrics read from a traced pass: (statistic, spans or counter).
# "total" is the spans' summed time, "top" the same for calls not nested in
# another span, "max" their longest call, "calls" their call count and
# "count" a counter the benchmark adds to.
PER_LAYER = {
    "formats.load_s": ("total", "formats.load"),
    "quotient.build_s": ("total", "quotient.build"),
    "quotient.calls": ("calls", "quotient.build"),
    "flows.encode_s": ("total", "flows.encode"),
    "flows.clauses": ("count", "flows.clauses"),
    "flows.witness_s": ("total", "flows.witness"),
    "solver.solve_s": ("total", "solver.solve"),
    "solver.solve_max_s": ("max", "solver.solve"),
    "solver.calls": ("calls", "solver.solve"),
    "oracle.search_s": ("total", "oracle.search"),
    "oracle.search_max_s": ("max", "oracle.search"),
    "oracle.modular_s": ("total", "oracle.modular"),
    "cdcl.solve_s": ("total", "cdcl.solve"),
    "cdcl.solve_max_s": ("max", "cdcl.solve"),
    "cdcl.calls": ("calls", "cdcl.solve"),
    "cdcl.clauses": ("count", "cdcl.clauses"),
    "constructions.survey_s": ("total", "constructions.survey"),
    "constructions.cloud_s": ("total", "constructions.cloud"),
    "geometry.detect_float_s": ("top", "geometry.detect_float"),
    "constructions.degree_prune_s": (
        "total", "constructions.prune_low_degree", "constructions.component"
    ),
    "constructions.unsat_prune_s": ("total", "constructions.unsat_prune"),
    "constructions.lift_s": ("total", "constructions.lift"),
    "constructions.icosi_s": ("total", "constructions.icosi"),
    "constructions.ce1_s": ("total", "constructions.ce1"),
    "geometry.detect_exact_s": ("total", "geometry.detect_exact"),
    "quotient.structure_s": ("total", "quotient.structure"),
    "formats.roundtrip_s": ("total", "formats.roundtrip"),
    "solver.dimacs_s": ("total", "solver.dimacs"),
    "render.svg_s": ("total", "render.svg"),
}


def _import_program() -> None:
    """Import sphereflow from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import sphereflow

    if Path(sphereflow.__file__).resolve().parent != SRC / "sphereflow":
        raise ImportError(f"sphereflow imported from {sphereflow.__file__}, not {SRC}")


def layer_value(metric: str, tracer) -> float:
    statistic, *sources = PER_LAYER[metric]
    if statistic == "count":
        return tracer.counts[sources[0]]
    totals = tracer.totals(top_level=statistic == "top")
    found = [totals.get(source, (0, 0.0, 0.0)) for source in sources]
    if statistic == "calls":
        return sum(calls for calls, _, _ in found)
    if statistic == "max":
        return max(longest for _, _, longest in found)
    return sum(total for _, total, _ in found)


def _probe_setup(args: argparse.Namespace) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - t0


def _start_untraced(args: argparse.Namespace) -> subprocess.Popen:
    """Start the untraced run for the same workload, seed and seconds."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish_untraced(proc: subprocess.Popen) -> dict:
    """Wait for the untraced run and return its result object."""
    try:
        out, err = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"untraced run exited with {proc.returncode}: {err.strip()}")
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "construct", "exact"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import sphereflow from {SRC}: {exc}", file=sys.stderr)
        return 2
    from inputs import EXPECTED, load_inputs
    from tracing import NULL, Tracer
    from workloads import WORKLOADS, run_pass

    inputs = load_inputs(args.seed)
    ops = WORKLOADS[args.workload](inputs, EXPECTED)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    # The traced run starts the untraced run beside it, so both sides of
    # the overhead start from a fresh process and see the same machine.
    child = _start_untraced(args) if args.trace else None
    # Only the first pass's answers are kept, so memory does not grow
    # with the number of passes.
    passes, op_max, tracers, failures, first = [], [], [], [], None
    start = time.perf_counter()
    try:
        while True:
            tracer = Tracer() if args.trace else NULL
            result = run_pass(ops, tracer, first)
            failures += result.failures
            first = first or result.answers
            passes.append(result.wall_s)
            op_max.append(max(result.op_s))
            if args.trace:
                tracers.append(tracer)
            if time.perf_counter() - start >= args.seconds:
                break
    except BaseException:
        if child:
            child.kill()
            child.wait()
        raise
    untraced = _finish_untraced(child) if child else None

    attempted, failed = len(ops) * len(passes), len(failures)
    wall = statistics.median(passes)

    metrics: dict[str, dict] = {}
    if args.trace:
        for name, (statistic, *_) in PER_LAYER.items():
            value = statistics.median(layer_value(name, tr) for tr in tracers)
            if statistic in ("calls", "count"):
                metrics[name] = {"value": int(value), "unit": "count"}
            else:
                metrics[name] = {"value": value, "unit": "s"}
        overhead = wall - untraced["metrics"]["wall_s"]["value"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        attempted += untraced["attempted"]
        failed += untraced["failed"]
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"{args.workload}-seed{args.seed}.json", "w", encoding="ascii") as fh:
            json.dump([{"spans": tr.spans, "counts": tr.counts} for tr in tracers], fh)
    else:
        setup = statistics.median(_probe_setup(args) for _ in range(SETUP_PROBES))
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "op_max_s": {"value": statistics.median(op_max), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }

    print(
        f"{os.cpu_count()} CPUs, Python {platform.python_version()}; "
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
        f"{len(passes)} pass(es) of {len(ops)} operations, "
        f"pass wall times {' '.join(f'{w:.3f}' for w in passes)} s"
    )
    for failure in failures:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':30s} {failed}/{attempted} operations")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
