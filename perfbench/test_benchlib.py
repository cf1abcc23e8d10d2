"""Self-tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import random
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402
import run  # noqa: E402

SCHEMA_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


class PercentileRule(unittest.TestCase):
    def test_ladder(self):
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(999), 95.0)
        self.assertEqual(benchlib.tail_percentile(135), 90.0)
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(99), 75.0)
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertIsNone(benchlib.tail_percentile(19))

    def test_ten_samples_beyond(self):
        rng = random.Random(3)
        for n in (20, 40, 100, 135, 999, 1000, 4321):
            xs = [rng.expovariate(1.0) for _ in range(n)]
            p = benchlib.tail_percentile(n)
            t = benchlib.timing(xs, p)
            self.assertEqual(t["samples"], n)
            self.assertGreaterEqual(sum(x > t["tail"] for x in xs), 10)

    def test_refuses_thin_tails(self):
        with self.assertRaises(ValueError):
            benchlib.timing(list(range(999)), 99.0)
        self.assertEqual(benchlib.timing(list(range(1000)), 99.0)
                         ["percentile"], 99.0)

    def test_matches_statistics_inclusive(self):
        rng = random.Random(5)
        xs = [rng.random() for _ in range(257)]
        qs = statistics.quantiles(xs, n=100, method="inclusive")
        for p in (10, 50, 90, 99):
            self.assertAlmostEqual(benchlib.percentile(xs, p), qs[p - 1])

    def test_workload_tails_have_their_samples(self):
        # Minimum samples per run: points x minimum passes, or
        # requests per block x minimum blocks (see the harness).
        minimum = {"vgg_tiles": 45 * 3, "bp_memsweep": 24 * 5,
                   "serve_mixed": 100 * 10}
        for w, p in run.TAIL_PERCENTILE.items():
            self.assertGreaterEqual(benchlib.tail_percentile(minimum[w]), p)


class Spans(unittest.TestCase):
    # [id, parent, name, start, end]
    SPANS = [
        [1, 0, "rep", 0.0, 10.0],
        [2, 1, "point", 0.0, 6.0],
        [3, 2, "system.build", 0.0, 1.0],
        [4, 2, "simulation.run", 1.0, 5.0],
        [5, 4, "system.run", 1.0, 4.5],
        [6, 1, "point", 6.0, 9.0],
        [7, 6, "simulation.run", 6.0, 9.0],
        [8, 7, "system.run", 6.0, 8.0],
    ]

    def test_self_time(self):
        st = benchlib.self_times(self.SPANS)
        self.assertAlmostEqual(st["rep"], 1.0)
        self.assertAlmostEqual(st["point"], 1.0)
        self.assertAlmostEqual(st["simulation.run"], 0.5 + 1.0)
        self.assertAlmostEqual(st["system.run"], 5.5)

    def test_overlapping_children_count_once(self):
        spans = [[1, 0, "rep", 0.0, 4.0],
                 [2, 1, "serve.request", 0.0, 3.0],
                 [3, 1, "serve.request", 1.0, 2.0],
                 [4, 1, "serve.request", 2.5, 3.5]]
        self.assertAlmostEqual(benchlib.self_times(spans)["rep"], 0.5)
        self.assertAlmostEqual(
            benchlib.uncovered_share(spans, "rep", {"serve.request"}),
            0.5 / 4.0)

    def test_uncovered_share(self):
        share = benchlib.uncovered_share(
            self.SPANS, "rep", {"system.build", "simulation.run"})
        # Covered: [0,1] + [1,5] + [6,9] = 8 of 10.
        self.assertAlmostEqual(share, 0.2)


class Ratios(unittest.TestCase):
    def test_ratio_carries_base(self):
        self.assertEqual(benchlib.ratio(3, 4), (0.75, 4))
        self.assertEqual(benchlib.ratio(1, 0), (0.0, 0))

    def test_every_ratio_metric_has_a_reported_base(self):
        schema = benchlib.load_schema(SCHEMA_PATH)
        names = {m["name"] for m in schema["per_layer"]}
        for m in schema["per_layer"]:
            if m["unit"] == "ratio":
                self.assertIn(m["name"], run.RATIO_BASES, m["name"])
        for ratio_name, base in run.RATIO_BASES.items():
            self.assertIn(ratio_name, names)
            self.assertIn(base, names)

    def test_count_metrics(self):
        m = run.count_metrics({"mem.col_commands": 10, "mem.row_misses": 4,
                               "noc.delivered": 4, "noc.hops_total": 6,
                               "pe.instructions": 8,
                               "pe.fastpath.fast_uops": 2})
        self.assertAlmostEqual(m["mem.row_hit_ratio"], 0.6)
        self.assertAlmostEqual(m["noc.hops_mean"], 1.5)
        self.assertAlmostEqual(m["pe.fastpath.uop_share"], 0.25)
        self.assertEqual(m["system.ff_skip_ratio"], 0.0)


class Names(unittest.TestCase):
    def test_charset(self):
        for ok in ("wall_s", "pe.fastpath.uop_share", "a-b.c_9", "9x"):
            self.assertEqual(benchlib.check_name(ok), ok)
        for bad in ("", ".x", "_x", "a b", "a/b", "ms%", "x" * 65, None):
            with self.assertRaises(ValueError):
                benchlib.check_name(bad)

    def test_benchmark_names(self):
        schema = benchlib.load_schema(SCHEMA_PATH)
        for section in ("workloads", "end_to_end", "per_layer"):
            for m in schema[section]:
                benchlib.check_name(m["name"])
        self.assertEqual({w["name"] for w in schema["workloads"]},
                         set(run.WORKLOADS))


class Schema(unittest.TestCase):
    def setUp(self):
        with open(SCHEMA_PATH, encoding="utf-8") as f:
            self.doc = json.load(f)

    def test_round_trip(self):
        benchlib.validate_schema(self.doc)
        again = json.loads(json.dumps(self.doc))
        self.assertEqual(benchlib.validate_schema(again), self.doc)

    def test_rejects(self):
        def broken(edit):
            doc = json.loads(json.dumps(self.doc))
            edit(doc)
            with self.assertRaises(ValueError):
                benchlib.validate_schema(doc)

        broken(lambda d: d.update(extra=1))
        broken(lambda d: d["end_to_end"][0].update(bound=0.3))
        broken(lambda d: d["end_to_end"].__setitem__(
            slice(None), [m for m in d["end_to_end"]
                          if m["name"] != "setup_s"]))
        broken(lambda d: d["per_layer"].append(dict(d["per_layer"][0])))
        broken(lambda d: d.update(run_seconds=61))
        broken(lambda d: d.update(command=["python3", "/abs/run.py"]))
        broken(lambda d: d["workloads"][0].update(why="two\nlines"))


class Checks(unittest.TestCase):
    def report(self, cycles):
        pt = {"name": "p", "ok": True, "cycles": cycles, "dram_bytes": 64,
              "work_items": 1, "latency_s": 0.1,
              "counts": {"pe.instructions": 5, "pe.fastpath.fast_uops": 2}}
        return {"workload": "w", "passes": [{"points": [pt]},
                                            {"points": [dict(pt)]}],
                "helpers": {"p": {"cycles": 100, "dram_bytes": 64,
                                  "work_items": 1}},
                "headline": {"simulated_ms": 1.5}}

    GOLDEN = {"w": {"headline_ms": 1.5, "points": {"p": {
        "cycles": 100, "dram_bytes": 64,
        "counts": {"pe.instructions": 5}}}}}

    def test_clean(self):
        self.assertEqual(run.check_campaign(self.report(100), self.GOLDEN),
                         (4, 0, []))

    def test_mismatch_counts_as_failure(self):
        attempted, failed, why = run.check_campaign(self.report(101),
                                                    self.GOLDEN)
        self.assertEqual((attempted, failed), (4, 3))
        self.assertIn("differ from pin", why[0])
        self.assertIn("bench/common helper", why[2])


if __name__ == "__main__":
    unittest.main()
