"""Layered benchmark for fracopt.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {sfda,bench_traced} --seed N \
        --seconds S --trace {0,1}

The run measures for S seconds of closed-loop work on inputs drawn from seed
N and prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
from a traced run and writes its spans under ``.perfbench_out/``.  fracopt is
imported from ``src/`` of the checkout and from nowhere else; without it the
run exits with status 2 and prints no result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sfda", "bench_traced")
SETUP_REPEATS = 15
# One set-up: a fresh interpreter imports fracopt and warms BLAS with the
# kinds of call the workloads make first (a product and a symmetric eigensolve).
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import fracopt
a = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
np.linalg.eigvalsh(a + a.T)
(a @ a).sum()
"""


def measure_setup() -> float:
    """Median wall time of SETUP_REPEATS fresh-interpreter set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_record(loadavg: tuple[float, float, float]) -> dict[str, Any]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "loadavg_at_start": list(loadavg),
    }


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it, floored at 50."""
    if samples <= 0:
        return 50
    return max(50, math.floor(100 * (samples - 10) / samples))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(loop, trials_per_step: int, setup_s: float) -> tuple[dict[str, Any], str]:
    records = loop.records
    ok = [r for r in records if r.ok]
    # One sample per trial: the time it spent in its solver calls.  Pooling
    # the calls of solvers with different costs would put the median between
    # their modes, where it jumps with the instance mix.
    per_trial: dict[tuple[int, int], float] = {}
    for r in records:
        if not math.isnan(r.solve_s):
            per_trial[r.step, r.trial] = per_trial.get((r.step, r.trial), 0.0) + r.solve_s
    solve = list(per_trial.values())
    pct = tail_percentile(len(solve))
    metrics = {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (loop.steps * trials_per_step / loop.wall_s, "1/s"),
        "solve_s.p50": (_median(solve), "s"),
        "solve_s.tail": (float(np.percentile(solve, pct)) if solve else 0.0, "s"),
        "ok_ratio": (len(ok) / len(records), "ratio"),
        "objective_mean": (statistics.fmean(r.objective for r in ok) if ok else math.nan, "1"),
        "recovery_rate": (sum(r.recovered for r in records) / len(records), "ratio"),
    }
    return metrics, f"solve_s.tail is p{pct} of {len(solve)} trials"


def per_layer(loop, tracer, trials_per_step: int) -> dict[str, Any]:
    from tracing import CALLBACKS
    from workloads import SOLVE_LAYER

    def seconds(span: dict[str, Any]) -> float:
        return span["end"] - span["start"]

    def span_median(name: str) -> float:
        return _median([seconds(s) for s in tracer.named(name)])

    def span_total(name: str) -> float:
        return sum(seconds(s) for s in tracer.named(name))

    # Instance-building layers in seconds per trial.  On bench_traced their
    # spans come from the replays, one per trial.
    m: dict[str, Any] = {
        name + "_s": (span_total(name) / (loop.steps * trials_per_step), "s")
        for name in ("sgep.gen", "sgep.construct", "l1l2.gen", "l1l2.construct", "l1l2.init")
    }
    # Solver and callback layers from the solve spans, which carry the
    # iteration, backtrack and callback totals of their call.
    # A solve that raised has no totals; its run is counted as failed.
    solved = {
        layer: [s for s in tracer.named(layer + ".solve") if "iterations" in s]
        for layer in SOLVE_LAYER.values()
    }
    solves = [s for spans in solved.values() for s in spans]
    per_solve = max(len(solves), 1)
    for cb in CALLBACKS:
        m[f"problem.{cb}.calls"] = (sum(s["callbacks"][cb][0] for s in solves) / per_solve, "count")
        m[f"problem.{cb}.s"] = (sum(s["callbacks"][cb][1] for s in solves) / per_solve, "s")
    for solver, layer in SOLVE_LAYER.items():
        mine = solved[layer]
        iterations = sum(s["iterations"] for s in mine)
        m[f"{layer}.solve_s"] = (_median([seconds(s) for s in mine]), "s")
        m[f"{layer}.iterations"] = (_median([s["iterations"] for s in mine]), "count")
        m[f"{layer}.iter_us"] = (
            _median([1e6 * seconds(s) / s["iterations"] for s in mine if s["iterations"]]),
            "us",
        )
        m[f"{layer}.self_s"] = (
            _median([seconds(s) - sum(t for _, t in s["callbacks"].values()) for s in mine]),
            "s",
        )
        if solver != "pgsa":
            prox_trials = sum(s["callbacks"]["prox_f"][0] for s in mine)
            m[f"{layer}.backtracks_per_iter"] = (
                sum(s["backtracks"] for s in mine) / iterations if iterations else 0.0,
                "ratio",
            )
            m[f"{layer}.accept_ratio"] = (iterations / prox_trials if prox_trials else 0.0, "ratio")
    runs = tracer.named("experiments.run")
    checks = sum(s["checks"] for s in tracer.named("oracle.audit"))
    audits = len(tracer.named("oracle.audit"))
    traces = tracer.named("io.write_trace")
    m.update(
        {
            "oracle.audit_s": (span_median("oracle.audit"), "s"),
            "oracle.audit_checks": (checks / audits if audits else 0.0, "count"),
            "oracle.audit_us_per_check": (
                1e6 * span_total("oracle.audit") / checks if checks else 0.0,
                "us",
            ),
            "experiments.run_s": (span_median("experiments.run"), "s"),
            "experiments.solve_s": (_median([t for s in runs for t in s["solve_s"]]), "s"),
            "experiments.iterates_mb": (
                sum(s["iterates_bytes"] for s in runs) / len(runs) / 1e6 if runs else 0.0,
                "MB",
            ),
            "io.write_trace_s": (span_median("io.write_trace"), "s"),
            "io.trace_mb": (
                sum(s["bytes"] for s in traces) / len(traces) / 1e6 if traces else 0.0,
                "MB",
            ),
            "io.load_trace_s": (span_median("io.load_trace"), "s"),
            "tracing.overhead_ratio": (loop.overhead_ratio, "ratio"),
            "process.peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
        }
    )
    for name, value in fingerprint(loop.records, traced=True).items():
        m[f"fingerprint.{name}"] = (value, "count")
    return m


def fingerprint(records, traced: bool) -> dict[str, int | None]:
    """Exact work counts of the first loop steps; they repeat run to run.

    Callbacks are counted only in traced runs; elsewhere their count is None.
    """
    from workloads import FINGERPRINT_STEPS

    first = [r for r in records if r.step < FINGERPRINT_STEPS]
    calls = sum(c for r in first if r.callbacks for c, _ in r.callbacks.values())
    return {
        "iterations": sum(r.iterations for r in first),
        "backtracks": sum(r.backtracks for r in first),
        "callback_calls": calls if traced else None,
        "audit_checks": sum(r.audit_checks for r in first),
    }


def _json_number(value: float) -> float | None:
    return value if math.isfinite(value) else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fracopt" / "__init__.py").is_file():
        print(f"error: no fracopt sources under {SRC}", file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    setup_s = measure_setup() if not args.trace else math.nan
    sys.path.insert(0, str(SRC))
    import fracopt

    if Path(fracopt.__file__).resolve().parent != SRC / "fracopt":
        print(f"error: fracopt imported from {fracopt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # The benchmark's own modules import fracopt, so they come after the check
    # that fracopt is the checkout's.
    from tracing import Tracer
    from workloads import BenchTracedWorkload, SfdaWorkload, closed_loop, is_correct, operations

    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    if args.workload == "sfda":
        workload = SfdaWorkload(args.seed, work_dir)
    else:
        workload = BenchTracedWorkload(args.seed, work_dir, threads=len(os.sched_getaffinity(0)))

    machine = machine_record(loadavg)
    print("machine: " + json.dumps(machine, sort_keys=True))
    tracer = Tracer(enabled=bool(args.trace))
    try:
        with tracer.span("workload"):
            loop = closed_loop(workload, args.seconds, tracer)
        if args.trace:
            workload.verify(loop.records)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(loop, tracer, workload.trials_per_step)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "machine": machine})
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics, note = end_to_end(loop, workload.trials_per_step, setup_s)
        print(note)
    runs = operations(loop.records)
    failed = [r for r in runs if not r.ok]
    print("fingerprint: " + json.dumps(fingerprint(loop.records, tracer.enabled)))
    for record in loop.records:
        if record.rejected:
            print(f"rejected draw: step {record.step} trial {record.trial} {record.solver}: {record.error}")
    if not runs:
        print("error: no instance could be built", file=sys.stderr)
        return 1
    print(f"failed_ratio: {len(failed) / len(runs)} ({len(failed)} of {len(runs)} runs)")
    for record in failed:
        print(f"failed run: step {record.step} {record.solver}: {record.error}")
    for issue in workload.issues:
        print(f"check failed: {issue}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")

    result = {
        "correct": is_correct(loop.records, workload.issues),
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {
            name: {"value": _json_number(float(value)), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
