#!/usr/bin/env python3
"""Build hapbench from source, run one workload, print one JSON result line.

Run from the repository root:

    python3 hapbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/hapbench (configured on first use, then
brought up to date on every run). The last line of standard output is

    {"correct": ..., "attempted": N, "failed": M, "metrics": {name: {"value", "unit"}}}

carrying the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) that BENCHMARK.json names. The exit status is 0 only when the
build succeeded, the run finished and every correctness check passed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hapbench")
RUN = os.path.join(ROOT, ".bench_build", "run")


def log_tail(path, lines=40):
    with open(path, errors="replace") as f:
        return "".join(f.readlines()[-lines:])


def build():
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):  # configured successfully
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "hapbench", "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                sys.stderr.write(log_tail(log))
                sys.stderr.write("hapbench: build failed (%s)\n" % " ".join(cmd))
                return None
    return os.path.join(BUILD, "hapbench")


def commit():
    try:
        # Never look for a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10, env=env)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    os.makedirs(RUN, exist_ok=True)
    doc_path = os.path.join(RUN, args.workload + ".json")
    if os.path.exists(doc_path):
        os.remove(doc_path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", RUN, "--json", doc_path]
    if args.trace:
        cmd += ["--trace", os.path.join(RUN, args.workload + ".trace.jsonl")]
    env = dict(os.environ, HAPBENCH_COMMIT=commit())
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        sys.stderr.write("hapbench: run timed out\n")
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1) or not os.path.exists(doc_path):
        sys.stderr.write("hapbench: run failed with status %d\n" % proc.returncode)
        return 1

    with open(doc_path) as f:
        doc = json.load(f)
    metrics = {p["label"]: {"value": p["value"], "unit": p["unit"]} for p in doc["points"]}
    want = expected_metrics(args.trace)
    if sorted(metrics) != sorted(want):
        sys.stderr.write("hapbench: metrics %s do not match BENCHMARK.json %s\n"
                         % (sorted(metrics), sorted(want)))
        return 1
    correct = proc.returncode == 0 and doc["ops_failed"] == 0
    print(json.dumps({"correct": correct, "attempted": max(1, doc["ops"]),
                      "failed": doc["ops_failed"],
                      "metrics": {name: metrics[name] for name in want}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
