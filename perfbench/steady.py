#!/usr/bin/env python3
"""Steadiness check: runs two sets of benchmark runs on one checkout and
reports, per workload and end-to-end metric, each set's median and
quartiles, the spread (q3 - q1) / median, and whether the sets agree
within the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py                  # 2 sets x 10 runs, every workload
    python3 perfbench/steady.py --runs 5 --workloads life-batch   # quick look while tuning

Every run lasts BENCHMARK.json's run_seconds and uses its own seed, counting
up from FIRST_SEED.  A metric passes when each set's spread is within its
bound (setup_s excepted: it is one cold set-up per run) and the two sets'
medians differ, in either direction, by no more than the bound; a workload
passes when the share of failed operations is identical in both sets.
Exits 1 if anything fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
FIRST_SEED = 1000


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"steady.py: {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]),
                    help="comma-separated workload names")
    args = ap.parse_args()
    seconds = spec["run_seconds"]

    metrics = spec["end_to_end"]
    ok = True
    seed = FIRST_SEED
    for workload in args.workloads.split(","):
        sets = []
        for s in range(SETS):
            runs = []
            for _ in range(args.runs):
                r = run_once(workload, seed, seconds)
                seed += 1
                if not r["correct"]:
                    ok = False
                    print(f"{workload} seed {seed - 1}: correct = false")
                runs.append(r)
                print(f"  {workload} set {s + 1} seed {seed - 1}: " +
                      " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                      file=sys.stderr, flush=True)
            sets.append(runs)
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets}
        if len(shares) != 1:
            ok = False
        print(f"{workload}: failed share per set {sorted(shares)}")
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            cells, medians = [], []
            for runs in sets:
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
                spread = (q3 - q1) / med
                spread_ok = name == "setup_s" or spread <= bound
                ok = ok and spread_ok
                medians.append(med)
                cells.append(f"med {med:10.4g} q1 {q1:10.4g} q3 {q3:10.4g} "
                             f"spread {spread:6.3f}{'' if spread_ok else ' !'}")
            # Positive drift: the second set reads worse than the first.
            drift = (medians[1] - medians[0]) / medians[0]
            if not lower:
                drift = -drift
            agree = abs(drift) <= bound
            ok = ok and agree
            verdict = f"drift {drift:+.3f} {'agree' if agree else 'DISAGREE'}"
            print(f"  {name:20s} bound {bound:4.2f} | " + " | ".join(cells) + f" | {verdict}")
    print("steady: PASS" if ok else "steady: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
