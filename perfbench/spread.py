#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out runs.json]
    python3 perfbench/spread.py --compare first.json second.json

The first form runs `perfbench/run.py --trace 0` once per seed and
workload, and prints for every end-to-end metric its median, its
quartiles (Python's statistics.quantiles(values, n=4)), the quartile
spread as a share of the median, and the metric's bound from
BENCHMARK.json. A spread above a third of its bound is flagged `WIDE`
(setup_s is exempt: only its median must hold). `--out` keeps every
run's metrics for the second form, which compares the medians of two
sets of runs against the bounds.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate()
    finally:
        # SIGTERM, not SIGKILL: run.py then stops its own child too.
        if child.poll() is None:
            child.terminate()
            child.wait()
    out = json.loads(stdout.strip().splitlines()[-1]) if stdout.strip() else {}
    if child.returncode != 0 or not out.get("correct"):
        print(f"  {workload} seed {seed}: FAILED (exit {child.returncode})", flush=True)
        return None
    return {k: v["value"] for k, v in out["metrics"].items()}


def report(bench, results):
    for workload, runs in results.items():
        print(f"== {workload} ({len(runs)} runs)")
        for m in bench["end_to_end"]:
            vals = [r[m["name"]] for r in runs if r]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = "" if m["name"] == "setup_s" or spread <= m["bound"] / 3 else "  WIDE"
            print(f"  {m['name']:16s} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"spread={spread:.4f} bound={m['bound']} (third {m['bound'] / 3:.4f}){flag}")


def compare(bench, first, second):
    for workload in first:
        print(f"== {workload}")
        for m in bench["end_to_end"]:
            a = statistics.median(r[m["name"]] for r in first[workload] if r)
            b = statistics.median(r[m["name"]] for r in second[workload] if r)
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "  REGRESSED" if worse > m["bound"] else ""
            print(f"  {m['name']:16s} first={a:<12.6g} second={b:<12.6g} "
                  f"worse_by={worse:+.4f} bound={m['bound']}{flag}")


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads")
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar="RUNS_JSON")
    a = p.parse_args()
    bench = load_bench()
    if a.compare:
        with open(a.compare[0]) as f, open(a.compare[1]) as g:
            compare(bench, json.load(f), json.load(g))
        return
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    results = {}
    for workload in names:
        results[workload] = []
        for seed in seeds(a.seeds):
            results[workload].append(run(workload, seed, bench["run_seconds"]))
            print(f"  {workload} seed {seed}: {results[workload][-1]}", flush=True)
    if a.out:
        with open(a.out, "w") as f:
            json.dump(results, f, indent=1)
    report(bench, results)


if __name__ == "__main__":
    main()
