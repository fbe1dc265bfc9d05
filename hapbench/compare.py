#!/usr/bin/env python3
"""Compare two sets of hapbench run documents: parent commit vs change.

    python3 hapbench/compare.py --parent p1.json p2.json ... --change c1.json c2.json ...

Each file is a document hapbench writes with --json (run.py leaves the
latest one per workload in .bench_build/run/<workload>.json). Give the runs
in the order they were made; the i-th parent run of a workload pairs with
its i-th change run. Runs should alternate which side goes first.

One row per workload x metric: each side's median and quartiles, then a
verdict by the rule the benchmark uses for claims and regressions:

  worse       the change's median is worse than the parent's by more than
              the metric's bound (BENCHMARK.json end_to_end) and by more
              than the metric's floor (FLOORS below)
  unresolved  the parent's own spread (quartile distance / median) exceeds
              the bound, and not every change run beats every parent run
  gain        at least 10 pairs, the change wins at least 9/10 of them
              (ties count for neither), and the medians differ by more than
              the parent's quartile distance
  same        none of the above

Metrics without a bound (per_layer) are reported with no verdict. A
per-layer point that a traced run measured on a probe of another workload
(it carries a "source") is left out: it does not describe the workload run.
The exit status is 1 when any row is "worse".
"""
import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9
# A median that moves by less than this, in the metric's unit, is "same"
# whatever the bound says: runs of identical code differ by tens of
# milliseconds of set-up and a few megabytes of memory. BENCHMARK.json
# entries have a fixed set of keys, so the floors live here.
FLOORS = {"setup_s": 0.05, "peak_rss_mb": 5.0}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load_runs(paths):
    """workload -> metric -> list of values, in the order given."""
    runs = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        per = runs.setdefault(doc["workload"], {})
        for point in doc["points"]:
            if "source" not in point:
                per.setdefault(point["label"], []).append(point["value"])
    return runs


def verdict(parent, change, bound, higher_is_better, floor=0.0):
    """Classify one workload x metric row (see the module docstring)."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if abs(c_med - p_med) < floor:
        return "same"
    p_q1, p_q3 = quartiles(parent)
    sign = 1.0 if higher_is_better else -1.0
    # Relative improvement of the change over the parent (positive = better).
    rel = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if rel < -bound:
        return "worse"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound and not all_better:
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (c_med - p_med) > (p_q3 - p_q1)):
        return "gain"
    return "same"


def compare(bench, parent_runs, change_runs):
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        p, c = parent_runs[workload], change_runs[workload]
        for name in [n for n in metrics if n in p and n in c]:
            m = metrics[name]
            bound = m.get("bound")
            v = None if bound is None else verdict(p[name], c[name], bound,
                                                   m["better"] == "higher",
                                                   FLOORS.get(name, 0.0))
            rows.append({
                "workload": workload, "metric": name, "unit": m["unit"],
                "parent": (statistics.median(p[name]),) + quartiles(p[name]),
                "change": (statistics.median(c[name]),) + quartiles(c[name]),
                "runs": (len(p[name]), len(c[name])),
                "bound": bound, "verdict": v,
            })
    return rows


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", default=os.path.join(os.path.dirname(here), "BENCHMARK.json"))
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args(argv)
    with open(args.bench) as f:
        bench = json.load(f)
    rows = compare(bench, load_runs(args.parent), load_runs(args.change))
    fmt = "%-15s %-27s %10s  %-34s %-34s %5s  %s"
    print(fmt % ("workload", "metric", "unit", "parent median [q1, q3]",
                 "change median [q1, q3]", "runs", "verdict"))
    for r in rows:
        side = lambda t: "%.5g [%.5g, %.5g]" % t
        print(fmt % (r["workload"], r["metric"], r["unit"], side(r["parent"]),
                     side(r["change"]), "%d/%d" % r["runs"], r["verdict"] or "-"))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
