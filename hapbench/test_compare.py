#!/usr/bin/env python3
"""Self-test of compare.py's verdicts (run by ctest as hapbench_compare_selftest)."""
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCH = {
    "end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "throughput", "unit": "ops/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "service.call_us", "unit": "us", "better": "lower"},
                  {"name": "core.sim_event_ns", "unit": "ns", "better": "lower"}],
}


class Verdicts(unittest.TestCase):
    def test_worse_beyond_bound(self):
        self.assertEqual(compare.verdict([10.0] * 5, [11.5] * 5, 0.1, False), "worse")
        self.assertEqual(compare.verdict([100.0] * 5, [85.0] * 5, 0.1, True), "worse")

    def test_within_bound_is_same(self):
        self.assertEqual(compare.verdict([10.0, 10.1, 9.9, 10.0], [10.5, 10.4, 10.6, 10.5],
                                         0.1, False), "same")

    def test_wide_parent_spread_is_unresolved(self):
        parent = [8.0, 12.0, 9.0, 11.0, 10.0]
        change = [10.5, 9.0, 11.5, 10.0, 10.8]
        self.assertEqual(compare.verdict(parent, change, 0.1, False), "unresolved")

    def test_wide_spread_but_every_change_run_better(self):
        parent = [8.0, 12.0, 9.0, 11.0, 10.0]
        change = [7.0, 7.5, 7.2, 7.1, 7.9]
        self.assertNotEqual(compare.verdict(parent, change, 0.1, False), "unresolved")

    def test_gain_needs_ten_pairs_and_nine_wins(self):
        parent = [10.0 + 0.01 * i for i in range(10)]
        change = [9.0 + 0.01 * i for i in range(10)]
        self.assertEqual(compare.verdict(parent, change, 0.1, False), "gain")
        self.assertEqual(compare.verdict(parent[:9], change[:9], 0.1, False), "same")
        change[0] = change[1] = 10.5  # two losses out of ten
        self.assertEqual(compare.verdict(parent, change, 0.1, False), "same")

    def test_change_below_floor_is_same(self):
        # 40 ms -> 52 ms of set-up is 30% worse but only 12 ms.
        self.assertEqual(compare.verdict([0.04] * 5, [0.052] * 5, 0.25, False, 0.05), "same")
        self.assertEqual(compare.verdict([0.04] * 5, [0.12] * 5, 0.25, False, 0.05), "worse")
        self.assertEqual(compare.verdict([90.0] * 5, [94.0] * 5, 0.01, False,
                                         compare.FLOORS["peak_rss_mb"]), "same")

    def test_gain_must_exceed_parent_quartile_distance(self):
        parent = [10.0, 10.4, 10.0, 10.4, 10.0, 10.4, 10.0, 10.4, 10.0, 10.4]
        change = [p - 0.05 for p in parent]
        self.assertEqual(compare.verdict(parent, change, 0.1, False), "same")


class EndToEnd(unittest.TestCase):
    def write_runs(self, tmp, tag, values):
        paths = []
        for i, (lat, thr, call) in enumerate(values):
            doc = {"workload": "serve_hot", "points": [
                {"label": "latency_p50_ms", "value": lat, "unit": "ms"},
                {"label": "throughput", "value": thr, "unit": "ops/s"},
                {"label": "service.call_us", "value": call, "unit": "us"},
                {"label": "core.sim_event_ns", "value": call, "unit": "ns",
                 "source": "sweep_sim"}]}
            path = os.path.join(tmp, "%s%d.json" % (tag, i))
            with open(path, "w") as f:
                json.dump(doc, f)
            paths.append(path)
        return paths

    def test_rows_and_exit_status(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = os.path.join(tmp, "BENCHMARK.json")
            with open(bench, "w") as f:
                json.dump(BENCH, f)
            parent = self.write_runs(tmp, "p", [(1.0, 100.0, 30.0)] * 3)
            same = self.write_runs(tmp, "s", [(1.01, 99.0, 31.0)] * 3)
            worse = self.write_runs(tmp, "w", [(1.5, 100.0, 30.0)] * 3)
            rows = compare.compare(BENCH, compare.load_runs(parent), compare.load_runs(same))
            self.assertEqual([r["verdict"] for r in rows], ["same", "same", None])
            # A point measured on a probe of another workload is left out.
            self.assertNotIn("core.sim_event_ns", [r["metric"] for r in rows])
            self.assertEqual(rows[0]["parent"], (1.0, 1.0, 1.0))
            self.assertEqual(compare.main(["--bench", bench, "--parent", *parent,
                                           "--change", *same]), 0)
            self.assertEqual(compare.main(["--bench", bench, "--parent", *parent,
                                           "--change", *worse]), 1)


if __name__ == "__main__":
    unittest.main()
