#!/usr/bin/env python3
"""bench_e2e_smoke: every workload runs in --smoke mode, prints every metric
BENCHMARK.json names, and passes its checks; a corrupted reference file must
make the correctness check fail.

    python3 hapbench/smoke.py --bin BUILD/hapbench --benchmark BENCHMARK.json \
        --ref hapbench/ref --workdir BUILD/smoke
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys

WORKLOADS = ["serve_hot", "serve_explore", "sweep_analytic", "sweep_sim"]


def run(binary, workdir, workload, *extra):
    cmd = [binary, "--workload", workload, "--smoke", "--workdir", workdir, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    printed = set(re.findall(r"^metric (\S+) \S+ \S+$", proc.stdout, re.M))
    failed = re.search(r"^ops (\d+) ops_failed (\d+)$", proc.stdout, re.M)
    return proc, printed, int(failed.group(2)) if failed else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin", required=True)
    ap.add_argument("--benchmark", required=True)
    ap.add_argument("--ref", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    os.makedirs(args.workdir, exist_ok=True)
    problems = []

    for w in WORKLOADS:
        proc, printed, failed = run(args.bin, args.workdir, w)
        if proc.returncode != 0 or failed != 0:
            problems.append("%s: exit %d, ops_failed %s\n%s" % (w, proc.returncode, failed,
                                                                proc.stderr[-2000:]))
        if end_to_end - printed:
            problems.append("%s: missing metrics %s" % (w, sorted(end_to_end - printed)))

    # One traced run prints the whole per-layer table (its probes cover the
    # layers sweep_sim does not reach).
    trace = os.path.join(args.workdir, "sweep_sim.trace.jsonl")
    proc, printed, failed = run(args.bin, args.workdir, "sweep_sim", "--trace", trace)
    if proc.returncode != 0 or failed != 0:
        problems.append("traced sweep_sim: exit %d\n%s" % (proc.returncode, proc.stderr[-2000:]))
    if per_layer - printed:
        problems.append("traced sweep_sim: missing metrics %s" % sorted(per_layer - printed))
    if not os.path.exists(trace) or os.path.getsize(trace) == 0:
        problems.append("traced sweep_sim wrote no spans")

    # A corrupted reference must fail the correctness check.
    bad = os.path.join(args.workdir, "badref")
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(args.ref, bad)
    path = os.path.join(bad, "sweep_analytic.json")
    with open(path) as f:
        ref = json.load(f)
    first = next(iter(ref))
    ref[first] *= 1.001
    with open(path, "w") as f:
        json.dump(ref, f)
    proc, _, failed = run(args.bin, args.workdir, "sweep_analytic", "--ref", bad)
    if proc.returncode == 0 or not failed:
        problems.append("corrupted reference was not detected (exit %d, ops_failed %s)"
                        % (proc.returncode, failed))

    for p in problems:
        print("FAIL", p)
    print("bench_e2e_smoke: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
