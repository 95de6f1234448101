#!/usr/bin/env python3
"""Run one workload of the tuning benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--seed N]

Run from the repository root. The script builds the `perfbench` binary
(its own Cargo package under perfbench/, built against the repository's
crates by path) into $CARGO_TARGET_DIR (default `.bench_build`), then:

  --trace 0  runs COLD_RUNS fresh processes that each time one set-up
             pass, and one process that times its own set-up pass and
             then measures steady passes for --seconds. setup_s is the
             median of the set-up walls; the other metrics come from
             the steady process.
  --trace 1  runs the separate traced process and prints the per-layer
             metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every answer was checked correct. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Fresh set-up processes besides the steady process's own set-up pass.
COLD_RUNS = 2
# All children of one run, after the build, must end within this many
# seconds, so that a whole run ends within 180 s.
RUN_BUDGET_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        log("build failed")
        sys.exit(3)
    return os.path.join(ROOT, target, "release", "perfbench")


def call(binary, args, deadline):
    """Run the binary; return (exit code, parsed last stdout line).

    The child is stopped at `deadline` (a time.monotonic() value), and
    always stopped and waited for when this script is interrupted or
    terminated.
    """
    child = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(args)}")
        return 124, {}
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    lines = stdout.strip().splitlines()
    try:
        return child.returncode, json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        return child.returncode or 1, {}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(binary, a, deadline):
    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    children = [call(binary, ["run", "--cold"] + common, deadline) for _ in range(COLD_RUNS)]
    children.append(call(binary, ["run"] + common, deadline))
    codes = [code for code, _ in children]
    outs = [out for _, out in children]
    steady = outs[-1]
    attempted = sum(int(o.get("attempted", 0)) for o in outs)
    failed = sum(int(o.get("failed", 0)) for o in outs)
    correct = all(c == 0 for c in codes) and failed == 0 and "qps" in steady
    # The set-up pass of every process must produce the same answers
    # and served classes, byte for byte.
    if len({(o.get("digest"), json.dumps(o.get("classes"), sort_keys=True)) for o in outs}) != 1:
        log("set-up passes disagree across processes")
        correct = False
    if not correct:
        log(f"exit codes {codes}, failed {failed}")
        return correct, max(attempted, 1), max(failed, 1), {}
    setups = [o["setup_s"] for o in outs]
    log(f"{a.workload} seed={a.seed}: setup_s={setups} passes={steady['passes']} "
        f"samples={steady['samples']} drift={steady['drift']:+.3f} classes={steady['classes']}")
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "qps": metric(steady["qps"], "1/s"),
        "latency_ms.p50": metric(steady["p50_ms"], "ms"),
        "latency_ms.p90": metric(steady["p90_ms"], "ms"),
        "peak_heap_mb": metric(steady["peak_heap_mb"], "MiB"),
        "ok_frac": metric((attempted - failed) / attempted, "ratio"),
    }
    return correct, attempted, failed, metrics


def traced(binary, a, deadline):
    code, out = call(binary, ["run", "--trace", "1", "--workload", a.workload,
                              "--seed", str(a.seed), "--seconds", str(a.seconds)], deadline)
    metrics = {name: metric(v[0], v[1]) for name, v in out.get("metrics", {}).items()}
    failed = int(out.get("failed", 1))
    correct = code == 0 and failed == 0 and bool(metrics)
    return correct, max(int(out.get("attempted", 0)), 1), failed, metrics


def main():
    # Turn SIGTERM into an exception, so `call` stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload for one checked pass")
    a = p.parse_args()
    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    if a.smoke:
        code, out = call(binary, ["smoke", "--seed", str(a.seed)], deadline)
        print(json.dumps(out))
        sys.exit(code)
    if not a.workload:
        p.error("--workload is required")
    correct, attempted, failed, metrics = (traced if a.trace else end_to_end)(binary, a, deadline)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
