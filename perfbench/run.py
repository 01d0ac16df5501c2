"""crowdcast benchmark: runs one workload, checks its outputs, prints metrics.

    python3 perfbench/run.py --workload train-small --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the root of a checkout; crowdcast is imported from its ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it records the environment.  A traced run also writes its spans to
``perfbench/out/``.
"""

import ctypes
import os
import sys
import time

T_START = time.perf_counter()

# One BLAS thread: the forecaster is trained and sampled on one core, and a
# fixed count keeps runs comparable.  Must be set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def fix_malloc_thresholds():
    """Keep freed large blocks in glibc's heap instead of returning them.

    With glibc's adaptive defaults, whether a freed temporary goes back to
    the kernel depends on heap layout: identical runs re-faulted from 0 to
    about 250k pages per grad-dense round (up to a fifth of its time).
    Fixed thresholds make that cost the same in every run.  Returns False
    where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 32 << 20)) and bool(mallopt(m_trim_threshold, 1 << 30))


MALLOC_FIXED = fix_malloc_thresholds()

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import crowdcast  # noqa: E402

if not os.path.abspath(crowdcast.__file__).startswith(SRC + os.sep):
    sys.exit(f"crowdcast was imported from {crowdcast.__file__}, not from {SRC}")

from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
CHECK_SEED = 2024  # picks the finite-difference probe entries


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(workload, seed, seconds, trace):
    agents = workload.agents()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "windows_per_round": len(agents),
        "agents_mean": float(np.mean(agents)), "agents_max": int(np.max(agents)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": int(BLAS_THREADS), "blas_threads": blas_threads(),
        "malloc_thresholds_fixed": MALLOC_FIXED,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
    }


def measure(workload, seconds):
    """Whole rounds until ``seconds`` have passed; returns (ops, elapsed seconds)."""
    ops = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        ops.extend(workload.run_round())
        if time.perf_counter() >= deadline:
            return ops, time.perf_counter() - start


def goodput(ops, elapsed):
    return sum(w for _, w, failed in ops if not failed) / elapsed


def run_one(args):
    import_s = time.perf_counter() - T_START
    workload = WORKLOADS[args.workload](args.seed)
    workroot = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    setup_tracer, phase_tracer = Tracer(), Tracer()
    try:
        if args.trace:
            setup_tracer.install()
        setup_times = []
        try:
            for i in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.setup(os.path.join(workroot, f"setup{i}"))
                setup_times.append(time.perf_counter() - t0)
        finally:
            setup_tracer.uninstall()

        if args.trace:
            untraced_ops, untraced_s = measure(workload, args.seconds / 2)
            phase_tracer.install()
            try:
                traced_ops, traced_s = measure(workload, args.seconds / 2)
            finally:
                phase_tracer.uninstall()
            ops = untraced_ops + traced_ops
        else:
            ops, elapsed = measure(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = workload.check(np.random.default_rng(CHECK_SEED))
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    if args.trace:
        windows = sum(w for _, w, _ in traced_ops)
        metrics = per_layer_metrics(setup_tracer, phase_tracer, windows)
        delta = goodput(traced_ops, traced_s) - goodput(untraced_ops, untraced_s)
        metrics["trace.windows_per_s_delta"] = {"value": delta, "unit": "windows/s"}
    else:
        p50, p90 = np.percentile([s * 1e3 for s, _, _ in ops], [50, 90])
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "windows_per_s": {"value": goodput(ops, elapsed), "unit": "windows/s"},
            "op_ms_p50": {"value": float(p50), "unit": "ms"},
            "op_ms_p90": {"value": float(p90), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }

    env = environment(workload, args.seed, args.seconds, args.trace)
    failed = sum(1 for _, _, f in ops if f)
    note = getattr(workload, "failure_note", lambda: None)()
    if note:
        print(f"note: {note}")
    for problem in problems:
        print(f"check failed: {problem}")
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"environment": env, "metrics": metrics,
                       "setup_spans": setup_tracer.span_summary(),
                       "spans_summary": phase_tracer.span_summary(),
                       "spans": phase_tracer.spans}, fh)
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process; prints one table and a combined result."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"{name}: exit code {proc.returncode}")
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(f"{name}: {line}")
        print(f"{name}: correct {result['correct']}, attempted {result['attempted']}, failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"{name}: {metric} {m['value']:.6g} {m['unit']}")
            metrics[f"{name}/{metric}"] = m
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
