#!/usr/bin/env python3
"""dpbudget benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload train-rf --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced units and reports per-layer
metrics from the traced ones.  Human-readable lines start with ``#``; the
last line of standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))


def cap_threads() -> int:
    """Cap BLAS threads at the cores this process may run on; call before
    numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), cores) if current.isdigit() and int(current) > 0 else cores)
    return cores


def import_workloads():
    sys.path.insert(0, SRC)
    import workloads

    return workloads


def setup_probe(name: str, seed: int, scale: float) -> float:
    """Time what a user pays before the first command: importing the
    package, generating and loading the inputs, initialising the model."""
    started = time.perf_counter()
    workloads = import_workloads()
    workdir = os.path.join(OUT, f"probe-{os.getpid()}")
    try:
        workloads.WORKLOADS[name](seed, workdir, scale).setup()
        return time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args) -> list:
    """Median-ready set-up times from fresh interpreters, one per repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed), "--scale", repr(args.scale)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def header(args, cores: int) -> dict:
    import numpy as np
    import scipy

    import dpbudget

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "cores": cores,
        "cpu_count": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "dpbudget": dpbudget.__version__,
    }


def summary_line(name: str, values: list, unit: str) -> str:
    return (
        f"# {name} median={statistics.median(values):.6g} {unit} "
        f"min={min(values):.6g} max={max(values):.6g} n={len(values)}"
    )


def run(args) -> int:
    cores = cap_threads()
    if not os.path.isfile(os.path.join(SRC, "dpbudget", "__init__.py")):
        print(f"perfbench: no dpbudget package under {SRC}", file=sys.stderr)
        return 2
    workloads = import_workloads()
    import dpbudget

    from tracer import PER_LAYER, Tracer

    if os.path.dirname(os.path.abspath(dpbudget.__file__)) != os.path.join(SRC, "dpbudget"):
        print(f"perfbench: imported dpbudget from {dpbudget.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("# header " + json.dumps(header(args, cores)))

    setup_times = measure_setup(args) if args.trace == 0 else []
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.scale)
    tracer = Tracer()
    try:
        workload.setup()
        units, traced, failures = [], [], []
        started = time.perf_counter()
        while True:
            trace_this = args.trace == 1 and len(traced) < len(units)
            if trace_this:
                tracer.install(dpbudget)
                try:
                    result = tracer.run_unit(len(traced), workload.execute)
                finally:
                    tracer.uninstall()
                traced.append(result)
            else:
                result = workload.execute()
                units.append(result)
            # check now and drop the outputs, so memory does not grow with
            # the number of units a run fits in
            failures.extend(workload.failures(op) for op in result.ops)
            result.ops.clear()
            elapsed = time.perf_counter() - started
            walls = [u.wall_s for u in units + traced]
            if (args.trace == 0 or traced) and elapsed + statistics.median(walls) > args.seconds:
                break
        if args.trace == 1:
            tracer.write(os.path.join(OUT, f"trace-{args.workload}.npz"))
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace == 0:
        rates = [u.items / u.item_s for u in units]
        walls = [u.wall_s for u in units]
        lines = [summary_line("setup_s", setup_times, "s"), summary_line("items_per_s of units", rates, "1/s"),
                 summary_line("pass_s of units", walls, "s"),
                 "# units " + " ".join(f"{u.items}/{u.item_s:.6f}/{u.wall_s:.6f}" for u in units)]
        parts = {part: unit for u in units for part, (_, unit) in u.parts.items()}
        lines += [summary_line(part, [u.parts[part][0] for u in units if part in u.parts], unit) for part, unit in parts.items()]
        # Throughput and pass time over all the work of the run.  The host
        # this was tuned on switches between two speeds within a run; a
        # median of units then jumps between them, where the totals move
        # with the share of time spent at each.
        metrics = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": sum(u.items for u in units) / sum(u.item_s for u in units),
            "pass_s": statistics.fmean(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        lines.append(f"# run: items_per_s={metrics['items_per_s']:.6g} pass_s={metrics['pass_s']:.6g} over {len(units)} units")
        units_of = dict(END_TO_END)
    else:
        per_unit = [tracer.layer_metrics(i, r.refused) for i, r in enumerate(traced)]
        for m in per_unit:
            # spans nest, so the self times must add up to the root span
            if abs(m["trace.self_sum_s"] - m["trace.wall_s"]) > 1e-6 * m["trace.wall_s"]:
                failures.append([f"self times sum to {m['trace.self_sum_s']} s, traced wall is {m['trace.wall_s']} s"])
        metrics = {name: statistics.median([m[name] for m in per_unit]) for name, _ in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median([r.wall_s for r in traced]) - statistics.median([u.wall_s for u in units])
        units_of = dict(PER_LAYER)
        lines = [f"# traced units={len(traced)} untraced units={len(units)} overhead={metrics['trace.overhead_s']:.4f} s"]

    failed_ops = sum(1 for f in failures if f)
    for line in [line for f in failures for line in f][:20]:
        print(f"# FAILED {line}")
    print(f"# {workload.name}: item = {workload.item}")
    print(f"# error_rate = {failed_ops}/{len(failures)} operations")
    print("\n".join(lines))
    result = {
        "correct": failed_ops == 0,
        "attempted": len(failures),
        "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train-rf", "train-rs", "privacy-analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0, help="measurement time (default 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink the work of one unit (tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        cap_threads()
        print(setup_probe(args.workload, args.seed, args.scale))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
