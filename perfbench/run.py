#!/usr/bin/env python3
"""Repo benchmark: builds perfbench/nufft_bench from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the repository root. Workloads, metrics, units and bounds live in
BENCHMARK.json. With --trace 0 the last stdout line carries every end-to-end
metric; with --trace 1 every per-layer metric (0 for a layer the workload does
not use), and a Chrome trace is written to <build dir>/out/. The exit code is 0
only when every checked output is within tolerance.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5  # cold set-ups per run (one process each); setup_s is their median
# Runnable, but not in BENCHMARK.json: on a shared 4-vCPU host its p99 latency
# moved by more than the 0.25 bound between runs (see README).
UNLISTED_WORKLOADS = ["slices_open"]
BUILD_TIMEOUT_S = 880
RUN_SLACK_S = 140  # time a run may take beyond --seconds (set-up, drain, checks)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures once, then (re)builds nufft_bench; the log goes to stderr on failure."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    cmds = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen)
    cmds.append(["cmake", "--build", bdir, "--target", "nufft_bench", "-j",
                 str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in cmds:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed: {' '.join(cmd)}", 3)
    return os.path.join(bdir, "nufft_bench")


def run_child(cmd, timeout):
    """Runs one nufft_bench process; returns (returncode, stdout lines)."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}", 4)
    return p.returncode, p.stdout.splitlines()


def last_json(lines, what):
    if not lines:
        fail(f"{what}: no output", 5)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{what}: last line is not JSON: {lines[-1][:200]}", 5)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]] + UNLISTED_WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in [1, 3600]")

    # The benchmark builds the library from this checkout's sources.
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "core", "plan.hpp"))):
        fail(f"no library sources under {ROOT} (expected CMakeLists.txt and src/)")

    bdir = build_dir()
    exe = build(bdir)
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    base = [exe, "--workload", args.workload, "--seed", str(args.seed)]

    setup = []
    if args.trace == 0:
        for _ in range(SETUP_REPEATS):
            rc, lines = run_child(base + ["--phase", "setup"], RUN_SLACK_S)
            if rc != 0:
                fail(f"set-up of {args.workload} failed (exit {rc})", 6)
            setup.append(float(last_json(lines, "set-up")["setup_s"]))

    rc, lines = run_child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                  "--out", out_dir], args.seconds + RUN_SLACK_S)
    res = last_json(lines, "run")
    for line in lines[:-1]:
        print(line)
    if rc not in (0, 1):
        fail(f"run of {args.workload} crashed (exit {rc})", 7)

    measured = dict(res["metrics"])
    attempted, failed = int(res["attempted"]), int(res["failed"])
    if attempted < 1:
        fail("no request was attempted", 8)
    measured["ok_rate"] = (attempted - failed) / attempted
    if setup:
        measured["setup_s"] = statistics.median(setup)
        print(f"# setup_s samples: {' '.join(f'{s:.6f}' for s in setup)}")

    metrics = {}
    if args.trace == 0:
        for m in spec["end_to_end"]:
            v = measured.get(m["name"])
            if v is None or not math.isfinite(v):
                fail(f"end-to-end metric {m['name']} missing or not finite", 9)
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    else:
        # A layer the workload never calls reports 0.
        for m in spec["per_layer"]:
            v = measured.get(m["name"], 0.0)
            metrics[m["name"]] = {"value": v if math.isfinite(v) else 0.0, "unit": m["unit"]}
        with open(os.path.join(out_dir, f"layers_{args.workload}.json"), "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics}, f,
                      indent=1)

    correct = bool(res["correct"]) and rc == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
