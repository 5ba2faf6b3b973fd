"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import unittest

import benchlib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def span(name, start, end, parent, replica=0):
    return [name, start, end, parent, replica]


def counts(**kw):
    base = {"reads_issued": 0, "reads_completed": 0, "writes_issued": 0,
            "writes_completed": 0, "violations": 0, "inversions": 0}
    base.update(kw)
    return base


def trace_raw():
    """A two-replica traced run with hand-computable metrics."""
    spans = []
    for r, off in ((0, 0), (1, 1000)):
        root = len(spans)
        spans.append(span("replica", off, off + 100_000_000, -1, r))  # 100 ms
        spans.append(span("harness.build", off + 1_000_000, off + 3_000_000, root, r))
        spans.append(span("churn.bootstrap", off + 3_000_000, off + 4_000_000, root, r))
        spans.append(span("sim.run", off + 4_000_000, off + 94_000_000, root, r))  # 90 ms
        spans.append(span("consistency.regularity", off + 94_000_000, off + 95_000_000, root, r))
        spans.append(span("consistency.atomicity", off + 95_000_000, off + 96_000_000, root, r))
    c = counts(reads_issued=10, reads_completed=8, writes_issued=2, writes_completed=1,
               retries=3, joins_started=10, joins_completed=4, reads_checked=8,
               **{"delivered.sync.reply": 600})
    layer = {"events": 900, "net_sent": 800, "net_delivered": 600,
             "net_dropped_departed": 200, "net_dropped_loss": 0,
             "net_dropped_partition": 0, "net_transformed": 0,
             "arena_chunks_created": 3, "arena_chunks_recycled": 1,
             "arena_bytes_reserved": 2 * 2**20}
    return {"mode": "trace", "deterministic": True, "workers": 2, "replicas": 2,
            "untraced": {"wall_s": 0.1, "cpu_s": 0.2, "counts": [c, c]},
            "traced": {"wall_s": 0.125, "cpu_s": 0.2, "counts": [dict(c), dict(c)]},
            "layers": [layer, layer], "shard_skew": [0.0, 0.0], "trace_bytes": 0,
            "spans": spans}


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        xs = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
        self.assertEqual(benchlib.percentile(xs, 0.0), 1)
        self.assertEqual(benchlib.percentile(xs, 0.5), 6)    # sorted[5]
        self.assertEqual(benchlib.percentile(xs, 0.99), 10)  # sorted[min(9, 9)]
        self.assertEqual(benchlib.percentile(xs, 1.0), 10)   # clamped to n - 1
        self.assertEqual(benchlib.percentile([4.5], 0.99), 4.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 0.5)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [span("replica", 0, 100, -1),
                 span("sim.run", 10, 40, 0),
                 span("net.x", 20, 30, 1),
                 span("consistency.regularity", 50, 60, 0)]
        self.assertEqual(benchlib.self_times_ns(spans), [60, 20, 10, 10])
        self.assertEqual(benchlib.self_time_by_layer_ms(spans),
                         {"harness": 60e-6, "sim": 20e-6, "net": 10e-6,
                          "consistency": 10e-6})

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [span("replica", 0, 100, -1),
                 span("sim.a", 10, 40, 0),
                 span("sim.b", 30, 50, 0),
                 span("sim.c", 90, 120, 0)]
        self.assertEqual(benchlib.self_times_ns(spans)[0], 100 - 40 - 10)

    def test_layer_names(self):
        self.assertEqual(benchlib.layer_of("replica"), "harness")
        self.assertEqual(benchlib.layer_of("consistency.atomicity"), "consistency")
        self.assertEqual(benchlib.layer_of("shard.run"), "shard")


class Ratios(unittest.TestCase):
    def test_empty_base(self):
        self.assertEqual(benchlib.ratio(5, 0), 0.0)
        self.assertEqual(benchlib.ratio(1, 4), 0.25)

    def test_end_to_end(self):
        raw = {"rounds": [{"wall_s": 2.0, "cpu_s": 7.0}, {"wall_s": 4.0, "cpu_s": 9.0},
                          {"wall_s": 3.0, "cpu_s": 8.0}],
               "setup_s": [0.5, 0.1, 0.2], "peak_rss_mb": 12.5,
               "counts": [counts(reads_issued=6, reads_completed=6, writes_issued=2,
                                 writes_completed=1, **{"delivered.a": 30}),
                          counts(reads_issued=2, reads_completed=1,
                                 **{"delivered.a": 10, "delivered.b": 20})]}
        m = benchlib.end_to_end(raw)
        self.assertEqual(m["wall_s"], (3.0, "s"))
        self.assertEqual(m["cpu_s"], (8.0, "s"))
        self.assertEqual(m["setup_s"], (0.2, "s"))
        self.assertEqual(m["deliveries_per_s"], (60 / 3.0, "1/s"))
        self.assertEqual(m["ops_failed_frac"], (2 / 10, "ratio"))  # base: ops issued
        self.assertEqual(m["peak_rss_mb"], (12.5, "MB"))

    def test_per_layer_bases(self):
        m, extra = benchlib.per_layer(trace_raw())
        v = {k: x[0] for k, x in m.items()}
        self.assertEqual(v["harness.replicas"], 2)
        self.assertAlmostEqual(v["harness.replica_ms_p50"], 100.0)
        self.assertAlmostEqual(v["harness.pool_util"], 0.2 / (2 * 0.125))
        self.assertAlmostEqual(v["harness.trace_overhead"], 1.25)
        self.assertAlmostEqual(v["harness.build_ms"], 2.0)
        self.assertAlmostEqual(v["sim.run_ms"], 90.0)
        self.assertEqual(v["sim.events"], 1800)
        self.assertAlmostEqual(v["sim.events_per_delivery"], 1.5)
        self.assertAlmostEqual(v["sim.arena_recycle_ratio"], 1 / 4)
        self.assertAlmostEqual(v["sim.arena_reserved_mb"], 2.0)
        self.assertAlmostEqual(v["net.useful_ratio"], 600 / 800)
        self.assertAlmostEqual(v["churn.join_useful_ratio"], 4 / 10)
        self.assertAlmostEqual(v["client.retry_ratio"], 6 / (24 + 6))  # base: attempts
        self.assertAlmostEqual(v["dynreg.deliveries_per_op"], 1200 / (18 + 8))
        self.assertEqual(v["net.delivered.sync.reply"], 1200)
        self.assertAlmostEqual(extra["sim.ns_per_event"][0], 180e6 / 1800)
        self.assertAlmostEqual(extra["consistency.check_ms"][0], 2.0)
        self.assertAlmostEqual(extra["churn.bootstrap_ms"][0], 1.0)
        self.assertIsNone(extra["shard.run_ms"][0])
        self.assertIsNone(extra["replay.variant_ms_p50"][0])

    def test_sharded_run_excludes_its_build_pass(self):
        raw = trace_raw()
        raw["spans"] = [span("replica", 0, 500, -1), span("shard.build", 0, 100, 0),
                        span("shard.run", 100, 500, 0)]
        m, extra = benchlib.per_layer(raw)
        self.assertAlmostEqual(m["sim.run_ms"][0], 300e-6)
        self.assertAlmostEqual(extra["shard.run_ms"][0], 400e-6)


class Gate(unittest.TestCase):
    def e2e(self, **kw):
        raw = {"mode": "e2e", "deterministic": True, "replicas": 2,
               "counts": [counts(reads_issued=1), counts(reads_issued=2)]}
        raw.update(kw)
        return raw

    def test_clean(self):
        raw = self.e2e()
        self.assertEqual(benchlib.gate(raw, None), (0, []))
        self.assertEqual(benchlib.gate(raw, benchlib.digest(raw["counts"])), (0, []))

    def test_golden_mismatch_fails_every_replica(self):
        failed, problems = benchlib.gate(self.e2e(), "0" * 32)
        self.assertEqual(failed, 2)
        self.assertEqual(len(problems), 1)

    def test_nondeterminism_and_violations(self):
        self.assertEqual(benchlib.gate(self.e2e(deterministic=False), None)[0], 2)
        raw = self.e2e(counts=[counts(), counts(violations=1)])
        self.assertEqual(benchlib.gate(raw, None)[0], 1)

    def test_traced_counts_must_equal_untraced(self):
        raw = trace_raw()
        raw["traced"] = copy.deepcopy(raw["traced"])
        raw["traced"]["counts"][1]["reads_issued"] += 1
        failed, problems = benchlib.gate(raw, None)
        self.assertEqual(failed, 1)
        self.assertIn("traced counts differ", problems[0])

    def test_search_cross_check(self):
        raw = self.e2e(counts=[counts(inversions=2), counts()])
        raw["search"] = {"executed": 2, "violating": 0, "inverted": 1}
        self.assertEqual(benchlib.gate(raw, None), (0, []))
        raw["search"]["inverted"] = 0
        self.assertEqual(benchlib.gate(raw, None)[0], 2)


class Schema(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            self.doc = json.load(fh)

    def test_repo_benchmark_is_valid(self):
        self.assertEqual(benchlib.check_schema(self.doc), [])

    def test_metric_names_match_what_run_py_prints(self):
        e2e = benchlib.end_to_end({"rounds": [{"wall_s": 1.0, "cpu_s": 1.0}],
                                   "setup_s": [1.0], "peak_rss_mb": 1.0, "counts": [counts()]})
        self.assertEqual([m["name"] for m in self.doc["end_to_end"]], list(e2e))
        for m in self.doc["end_to_end"]:
            self.assertEqual(m["unit"], e2e[m["name"]][1])
        layers, _ = benchlib.per_layer(trace_raw())
        self.assertEqual([m["name"] for m in self.doc["per_layer"]], list(layers))
        for m in self.doc["per_layer"]:
            self.assertEqual(m["unit"], layers[m["name"]][1])

    def test_rejections(self):
        cases = {
            "bound": lambda d: d["end_to_end"][0].update(bound=0.3),
            "setup": lambda d: d["end_to_end"].pop(3),
            "dupe": lambda d: d["per_layer"].append(dict(d["per_layer"][0])),
            "path": lambda d: d.update(paths=["../x"]),
            "seconds": lambda d: d.update(run_seconds=61),
            "why": lambda d: d["workloads"][0].update(why="a\nb"),
            "extra key": lambda d: d.update(extra=1),
            "unit": lambda d: d["per_layer"][0].update(unit="far too long a unit"),
        }
        for label, mutate in cases.items():
            doc = copy.deepcopy(self.doc)
            mutate(doc)
            self.assertNotEqual(benchlib.check_schema(doc), [], label)


if __name__ == "__main__":
    unittest.main()
