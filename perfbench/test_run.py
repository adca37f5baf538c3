"""Self-tests of the benchmark's own code: percentiles, the failure
allowance, the metric names against BENCHMARK.json, and the result format.

    python3 -m unittest discover -s perfbench
"""

import json
import math
import os
import random
import statistics
import unittest

import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def synthetic_record(trace=True):
    """A run record shaped like the one perfbench.Main prints."""
    layers = {k: 0 for k in (
        "smm_ns", "smm_edge_ops", "switch_ns", "psi_sum", "amc_self_ns", "amc_batches", "amc_walks",
        "amc_walk_steps", "amc_useful_walks", "amc_tau_reached", "local_batches", "local_ns",
        "local_steps", "spark_jobs", "spark_tasks", "spark_job_ms", "spark_task_run_ms",
        "spark_task_deser_ms", "spark_wait_ms", "spark_task_failures")}
    layers.update(queries=4, ell_sum=400, smm_advances=8, amc_queries=4)
    return {
        "facts": {"delta": 0.01},
        "session_start_s": 5.0,
        "setup": [{"graph_s": g, "lambda_s": 2.0, "engine_s": 0.0, "total_s": g + 2.0} for g in (0.3, 0.1, 0.2)],
        "lambda": 0.96,
        "csr_mb": 0.7,
        "warmup": {"queries": 2, "seconds": 1.0},
        "measured": {"queries": 4, "wall_s": 2.0, "latency_ms": [4.0, 1.0, 3.0, 2.0]},
        "check": {"err_over_eps": [0.1, 0.2, 0.3, 0.4], "crosscheck_pairs": 2, "crosscheck_max_abs": 1e-12},
        "jvm": {"gc_ms": 4, "alloc_bytes": 4096},
        "trace": {"queries": 4, "traced_ns": 2500, "untraced_ns": 2000, "guard": {"identical": 4, "spark_reordered": 0, "mismatch": 0},
                  "layers": layers} if trace else None,
    }


class PercentileTest(unittest.TestCase):
    def test_matches_inclusive_quantiles(self):
        rnd = random.Random(7)
        for n in (2, 3, 10, 101, 1000):
            xs = [rnd.expovariate(1.0) for _ in range(n)]
            qs = statistics.quantiles(xs, n=10, method="inclusive")
            self.assertAlmostEqual(run.percentile(xs, 50), qs[4], places=12)
            self.assertAlmostEqual(run.percentile(xs, 90), qs[8], places=12)

    def test_edges(self):
        self.assertEqual(run.percentile([5.0], 90), 5.0)
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 0), 1.0)
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 100), 3.0)
        self.assertEqual(run.percentile([1.0, 2.0, 3.0, 4.0], 50), 2.5)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_p90_leaves_ten_samples_beyond_it_at_min_queries(self):
        xs = list(range(run.MIN_QUERIES))
        self.assertGreaterEqual(sum(1 for x in xs if x > run.percentile(xs, 90)), 10)


def binom_pmf(n, j, p):
    return math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                    + j * math.log(p) + (n - j) * math.log1p(-p))


class AllowedFailuresTest(unittest.TestCase):
    def test_tail_bound(self):
        for n, delta in ((100, 0.01), (1500, 0.01), (150, 0.05)):
            k = run.allowed_failures(n, delta)
            tail = sum(binom_pmf(n, j, delta) for j in range(k + 1, n + 1))
            self.assertLessEqual(tail, run.FAILURE_ALPHA * (1 + 1e-9))
            self.assertGreater(tail + binom_pmf(n, k, delta), run.FAILURE_ALPHA)

    def test_degenerate(self):
        self.assertEqual(run.allowed_failures(0, 0.01), 0)
        self.assertEqual(run.allowed_failures(100, 0.0), 0)


class SpecTest(unittest.TestCase):
    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))

    def test_contract_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_metric_names_are_exactly_the_declared_ones(self):
        self.assertEqual(set(run.end_to_end(synthetic_record())), set(run.declared_metrics(SPEC, False)))
        self.assertEqual(set(run.per_layer(synthetic_record())), set(run.declared_metrics(SPEC, True)))


class ResultFormatTest(unittest.TestCase):
    def check_line(self, line, trace):
        self.assertEqual(list(line), ["correct", "attempted", "failed", "metrics"])
        self.assertIsInstance(line["correct"], bool)
        self.assertIsInstance(line["attempted"], int)
        self.assertIsInstance(line["failed"], int)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(set(line["metrics"]), set(run.declared_metrics(SPEC, trace)))
        for name, m in line["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertTrue(math.isfinite(m["value"]), name)
        text = json.dumps(line, allow_nan=False)
        self.assertNotIn("\n", text)
        self.assertEqual(json.loads(text), line)

    def test_end_to_end_line(self):
        line = run.result_line(synthetic_record(trace=False), SPEC, False)
        self.check_line(line, False)
        self.assertTrue(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (4, 0))
        m = line["metrics"]
        self.assertEqual(m["setup_s"]["value"], 2.2)
        self.assertEqual(m["query_p50_ms"]["value"], 2.5)
        self.assertEqual(m["queries_per_s"]["value"], 2.0)

    def test_per_layer_line(self):
        line = run.result_line(synthetic_record(), SPEC, True)
        self.check_line(line, True)
        self.assertAlmostEqual(line["metrics"]["trace.overhead_pct"]["value"], 25.0)

    def test_failures_and_guard(self):
        raw = synthetic_record()
        raw["check"]["err_over_eps"] = [1.5, None] + [0.1] * 98  # None: the query threw
        raw["measured"]["latency_ms"] = [1.0] * 100
        raw["measured"]["queries"] = 100
        line = run.result_line(raw, SPEC, True)
        self.assertEqual(line["failed"], 2)
        self.assertTrue(line["correct"])  # 2 of 100 is within the δ = 0.01 allowance
        self.assertEqual(line["metrics"]["accuracy.fail_count"]["value"], 2)
        raw["check"]["err_over_eps"] = [1.5] * 9 + [0.1] * 91
        line = run.result_line(raw, SPEC, True)
        self.assertEqual(line["failed"], 9)
        self.assertFalse(line["correct"])  # more than 8 of 100

        raw = synthetic_record()
        raw["trace"]["guard"]["mismatch"] = 1
        self.assertFalse(run.result_line(raw, SPEC, True)["correct"])

        raw = synthetic_record()
        raw["check"]["crosscheck_max_abs"] = 1e-3
        self.assertFalse(run.result_line(raw, SPEC, True)["correct"])


if __name__ == "__main__":
    unittest.main()
