#!/usr/bin/env python3
"""Steadiness report: the spread of each end-to-end metric over
repeated runs of unchanged code.

    python3 e2ebench/steadiness.py [--workloads a,b] [--runs 10] [--sets 1]

Runs run.py --trace 0 once per seed for every workload (seeds
1..runs, then runs+1..2*runs for a second set) and prints, per metric,
the median, the inter-quartile range as a share of the median
(statistics.quantiles(n=4)), that spread as a share of the metric's
bound, and with --sets 2 how far the second set's median moved. It
also re-runs the first seed and checks that the exact counts repeat.
Exits 1 when a spread exceeds its bound, a second median moved from
the first by more than the bound in either direction, or an exact
count differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    exact = next(line for line in lines if line.startswith("# exact: "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: %d of %d ops failed"
                         % (workload, seed, result["failed"],
                            result["attempted"]))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, exact


def worse_by(first, second, better):
    """Relative worsening of `second` against `first` (< 0: better)."""
    change = (second - first) / abs(first)
    return -change if better == "higher" else change


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    ok = True
    for workload in args.workloads.split(","):
        sets, first_exact = [], None
        for s in range(args.sets):
            runs = []
            for k in range(args.runs):
                seed = 1 + s * args.runs + k
                values, exact = run_once(workload, seed, args.seconds)
                if seed == 1:
                    first_exact = exact
                runs.append(values)
                print("%s seed %d: %s" % (workload, seed, json.dumps(
                    {k: round(v, 6) for k, v in values.items()})),
                    flush=True)
            sets.append(runs)
        _, again = run_once(workload, 1, args.seconds)
        if again != first_exact:
            print("%s: EXACT COUNTS DIFFER between two seed-1 runs:\n  %s\n"
                  "  %s" % (workload, first_exact, again))
            ok = False

        print("\n%s: %d runs per set" % (workload, args.runs))
        print("  %-14s %12s %8s %9s %9s" % ("metric", "median", "spread",
                                           "/bound", "2nd-1st"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = [r[name] for r in sets[0]]
            sp = metrics.spread(first)
            line = "  %-14s %12.6g %7.2f%% %8.2f" % (
                name, statistics.median(first), 100 * sp, sp / bound)
            if sp > bound:
                ok = False
                line += "  SPREAD > BOUND"
            if len(sets) == 2:
                second = [r[name] for r in sets[1]]
                w = worse_by(statistics.median(first),
                             statistics.median(second), m["better"])
                line += " %+8.2f%%" % (100 * w)
                sp2 = metrics.spread(second)
                if abs(w) > bound or sp2 > bound:
                    ok = False
                    line += "  SECOND SET OUT OF BOUND"
            print(line)
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
