#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload weekly_batch --seed 42 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 42

The first call configures and builds perfbench/ (which compiles src/)
into .bench_build/perfbench; later calls only rebuild what changed.
Each workload run prints nmbench's human-readable report and then, as
its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics. With --trace 1
they are the per-layer metrics of a traced run, plus
trace.overhead.<metric>: each end-to-end metric of the traced run
divided by the same metric of an untraced run of the same seed. The
operations attempted and failed then count both runs.

Exit codes: 0 every output correct; 1 an output was wrong or the
program failed; 2 usage error or the build failed; 3 the run was void
because the open-loop generator fell behind (no numbers are printed).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["weekly_batch", "serve_saturday"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build nmbench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no src/CMakeLists.txt next to perfbench/; "
            "run from the root of a full checkout")
        return None
    if shutil.which("cmake") is None:
        log("run.py: cmake not found")
        return None
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD, "--target", "nmbench",
                  "--parallel", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("run.py: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD, "nmbench")


def run_nmbench(binary, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, parsed last line or None)."""
    workdir = os.path.join(BUILD, "work", "%s_%d_%d" % (workload, seed, trace))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line, flush=True)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        if lines and lines[-1]:
            print(lines[-1], flush=True)
        result = None
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        for name in os.listdir(workdir) if os.path.isdir(workdir) else []:
            if name.startswith("trace_"):
                os.replace(os.path.join(workdir, name),
                           os.path.join(traces, name))
                print("  trace kept at " + os.path.relpath(
                    os.path.join(traces, name), ROOT), flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return done.returncode, result


def contract_line(result, metrics):
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


def run_one(binary, args):
    code, result = run_nmbench(binary, args.workload, args.seed,
                               args.seconds, 0)
    if result is None or code not in (0, 1):
        return code if code != 0 else 1
    if args.trace == 0:
        print(contract_line(result, result["end_to_end"]), flush=True)
        return code
    untraced = result
    traced_code, result = run_nmbench(binary, args.workload, args.seed,
                                      args.seconds, 1)
    if result is None or traced_code not in (0, 1):
        return traced_code if traced_code != 0 else 1
    metrics = dict(result["per_layer"])
    for name, m in result["end_to_end"].items():
        base = untraced["end_to_end"].get(name, {}).get("value", 0)
        if name != "setup_s" and base:
            metrics["trace.overhead." + name] = {
                "value": m["value"] / base, "unit": "ratio"}
    # Both runs' outputs were checked; a failure in either counts.
    both = {key: untraced[key] + result[key]
            for key in ("attempted", "failed")}
    both["correct"] = untraced["correct"] and result["correct"]
    print(contract_line(both, metrics), flush=True)
    return max(code, traced_code)


def run_all(binary, args):
    """Every workload once, untraced; a table of their own metrics."""
    summary = {}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_nmbench(binary, workload, args.seed,
                                   args.seconds, 0)
        worst = max(worst, code)
        summary[workload] = result
    print("\n%-16s %-36s %16s  %s" % ("workload", "metric", "value", "unit"))
    for workload in WORKLOADS:
        result = summary[workload]
        if result is None:
            print("%-16s %-36s" % (workload, "(no result)"))
            continue
        print("%-16s %-36s %16s" % (
            workload, "operations attempted / failed",
            "%d / %d" % (result["attempted"], result["failed"])))
        for name, m in result["named"].items():
            print("%-16s %-36s %16.6g  %s" % (workload, name, m["value"],
                                               m["unit"]))
    out = os.path.join(BUILD, "results_all_%d.json" % args.seed)
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print("\nresults written to " + os.path.relpath(out, ROOT))
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    binary = build()
    if binary is None:
        return 2
    if args.workload == "all":
        return run_all(binary, args)
    return run_one(binary, args)


if __name__ == "__main__":
    sys.exit(main())
