"""Alternating A/B runs of the benchmark on two checkouts, judged by the
benchmark's own bounds.

    python3 tools/abpairs.py PARENT CHANGE --workload eval-k20 --pairs 10

PARENT and CHANGE are the roots of two checkouts.  Each pair runs the
benchmark command of ``BENCHMARK.json`` (read from CHANGE) once in each
checkout, one process at a time, untraced, for ``run_seconds`` of
``BENCHMARK.json``, with the same fresh seed for both sides (pair i gets
seed i).  Even pairs run PARENT first and odd pairs CHANGE first, so a
drift in the machine's speed does not favour one side.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, how many pairs the change won (ties count for
neither side), and a verdict:

- "worse beyond bound": the change's median is worse than the parent's by
  more than the metric's bound, relative to the parent's median;
- "unresolved": otherwise, where the parent's own quartile spread is wider
  than the bound, unless every run of the change reads better than every
  run of the parent;
- "no worse": otherwise.

The exit status is 1 when any run reads ``correct: false``, or when the
change fails a larger share of its operations than the parent; else 0.
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(checkout, command, workload, seed, seconds):
    """One untraced benchmark run in ``checkout``; its final JSON line."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=20 * seconds + 300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{checkout}: benchmark exited with status {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    """(first quartile, median, third quartile)."""
    return tuple(float(v) for v in np.percentile(values, [25, 50, 75]))


def relative_worsening(parent, change, better):
    """How much worse ``change`` reads than ``parent``, as a share of
    ``parent``; negative when it reads better."""
    worse = change - parent if better == "lower" else parent - change
    if parent == 0:
        return 0.0 if worse == 0 else np.copysign(np.inf, worse)
    return worse / abs(parent)


def verdict(parent, change, better, bound):
    """The verdict on one metric from each side's runs (see module docstring)."""
    q1, median, q3 = quartiles(parent)
    if relative_worsening(median, quartiles(change)[1], better) > bound:
        return "worse beyond bound"
    sign = 1.0 if better == "lower" else -1.0
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if (q3 - q1) > bound * abs(median) and not every_run_better:
        return "unresolved"
    return "no worse"


def wins(parent, change, better):
    """Pairs in which the change reads strictly better."""
    return sum(1 for p, c in zip(parent, change) if relative_worsening(p, c, better) < 0)


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def summarize(spec, pairs):
    """Report rows and the exit status for ``pairs``, a list of (parent
    result, change result) as the benchmark prints them."""
    parents, changes = [p for p, _ in pairs], [c for _, c in pairs]
    rows = []
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        a = [r["metrics"][name]["value"] for r in parents]
        b = [r["metrics"][name]["value"] for r in changes]
        rows.append({"metric": name, "unit": metric["unit"], "bound": metric["bound"],
                     "parent": quartiles(a), "change": quartiles(b), "wins": wins(a, b, better),
                     "pairs": len(pairs), "verdict": verdict(a, b, better, metric["bound"])})
    incorrect = sum(1 for r in parents + changes if not r["correct"])
    failed = (failed_share(parents), failed_share(changes))
    status = 1 if incorrect or failed[1] > failed[0] else 0
    return rows, incorrect, failed, status


def format_row(row):
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    return (f"{row['metric']:<14} {row['unit']:<10} parent {side(row['parent']):<28} change {side(row['change']):<28} "
            f"wins {row['wins']}/{row['pairs']}  bound {row['bound']:.0%}  {row['verdict']}")


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=positive_int, default=10)
    args = parser.parse_args(argv)
    spec = load_spec(args.change)
    seconds = spec["run_seconds"]
    pairs = []
    for seed in range(args.pairs):
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        result = {}
        for side in order:
            result[side] = run_once(getattr(args, side), spec["command"], args.workload, seed, seconds)
            shown = ", ".join(f"{k} {m['value']:.4g}" for k, m in result[side]["metrics"].items())
            print(f"pair {seed} {side}: correct {result[side]['correct']}, "
                  f"failed {result[side]['failed']}/{result[side]['attempted']}, {shown}", flush=True)
        pairs.append((result["parent"], result["change"]))
    rows, incorrect, failed, status = summarize(spec, pairs)
    print(f"{args.workload}: {len(pairs)} pairs of {seconds:g} s runs, median [first quartile, third quartile]")
    for row in rows:
        print(format_row(row))
    print(f"runs reading correct: false: {incorrect}; failed share parent {failed[0]:.4g}, change {failed[1]:.4g}")
    return status


if __name__ == "__main__":
    sys.exit(main())
