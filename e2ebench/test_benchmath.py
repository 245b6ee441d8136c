"""Checks of the benchmark's own arithmetic on tiny, hand-made inputs.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import math
import os
import unittest

import benchmath as bm
import run


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        xs = [5, 1, 4, 2, 3]
        self.assertEqual(bm.percentile(xs, 0.5), 3)
        self.assertEqual(bm.percentile(xs, 0.2), 1)
        self.assertEqual(bm.percentile(xs, 0.21), 2)
        self.assertEqual(bm.percentile(xs, 1.0), 5)
        self.assertEqual(bm.percentile(xs, 0.0), 1)

    def test_tail_needs_ten_samples_beyond(self):
        # 1,000 samples: p99 leaves exactly ten beyond it.
        self.assertEqual(bm.tail_quantile(1000), 0.99)
        # 100 samples: p99 would leave one; p90 leaves ten.
        self.assertAlmostEqual(bm.tail_quantile(100), 0.90)
        # 50 samples: p80.
        self.assertAlmostEqual(bm.tail_quantile(50), 0.80)
        # Fewer than 20 samples support no tail at all.
        self.assertIsNone(bm.tail_quantile(19))
        self.assertEqual(bm.tail_percentile(list(range(19))), (None, None))

    def test_tail_value_leaves_ten_samples_beyond(self):
        xs = list(range(1, 101))  # 1..100
        q, value = bm.tail_percentile(xs)
        self.assertAlmostEqual(q, 0.90)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for x in xs if x > value), 10)

    def test_refused_requests_sit_in_the_tail(self):
        xs = [0.001] * 990 + [None] * 10
        self.assertEqual(bm.percentile(xs, 0.99), 0.001)
        xs = [0.001] * 989 + [None] * 11
        self.assertTrue(math.isinf(bm.percentile(xs, 0.99)))


class ErrorRate(unittest.TestCase):
    def test_counts_refused_as_misses(self):
        self.assertEqual(bm.error_rate(100, 0), 0.0)
        self.assertEqual(bm.error_rate(100, 2, refused=3), 0.05)

    def test_zero_attempts_is_an_error(self):
        with self.assertRaises(ValueError):
            bm.error_rate(0, 0)

    def test_refusal_fails_the_limit(self):
        due = [i * 1e-3 for i in range(2000)]
        latency = [1e-4] * 2000
        ok = bm.phase_summary(due, latency, [0.0] * 2000, 0.01, 64)
        self.assertTrue(ok["meets_limit"])
        self.assertEqual(ok["refused"], 0)
        # 30 refusals: more than 1 % of requests miss any limit.
        latency[500:530] = [None] * 30
        bad = bm.phase_summary(due, latency, [0.0] * 2000, 0.01, 64)
        self.assertEqual(bad["refused"], 30)
        self.assertFalse(bad["meets_limit"])


class OpenLoop(unittest.TestCase):
    def test_lateness_is_send_minus_due(self):
        self.assertEqual(bm.lateness([1.0, 2.0, 3.0], [1.0, 2.5, 2.9]),
                         [0.0, 0.5, 0.0])

    def test_latency_from_due_charges_a_stall(self):
        # The generator stalls 5 ms at request 100 and sends the queued
        # requests late; each request is timed from when it was due, so
        # the stall shows in the latency of every delayed request.
        n = 1000
        due = [i * 1e-4 for i in range(n)]
        sent = [max(d, 0.0150) if 100 <= i < 150 else d
                for i, d in enumerate(due)]
        service = 2e-5
        done = [s + service for s in sent]
        latency = [c - d for c, d in zip(done, due)]
        late = bm.lateness(due, sent)
        summary = bm.phase_summary(due, latency, late, 1.0, 64)
        self.assertAlmostEqual(max(late), 0.005, places=9)
        self.assertAlmostEqual(summary["tail_s"], 0.0150 + service - due[110],
                               places=9)
        self.assertGreater(summary["late_tail_s"], 0.0)


class Backlog(unittest.TestCase):
    def test_steady_service_does_not_grow(self):
        due = [i * 1e-3 for i in range(1000)]
        done = [d + 5e-4 for d in due]
        self.assertLess(abs(bm.backlog_growth(due, done)), 1.0)

    def test_overload_grows(self):
        # Arrivals every 1 ms, service every 2 ms: half the requests pile
        # up, so about 500 are outstanding by the end.
        due = [i * 1e-3 for i in range(1000)]
        done = [(i + 1) * 2e-3 for i in range(1000)]
        growth = bm.backlog_growth(due, done)
        self.assertGreater(growth, 400)

    def test_never_completed_counts_as_outstanding(self):
        due = [i * 1e-3 for i in range(100)]
        done = [d + 1e-4 for d in due[:50]] + [math.inf] * 50
        self.assertGreater(bm.backlog_growth(due, done), 40)


class MaxRateUnderLimit(unittest.TestCase):
    def phase(self, rate, latency_s, overload=False, n=2000, limit=0.010):
        due = [i / rate for i in range(n)]
        if overload:
            done = [(i + 1) * 2.0 / rate for i in range(n)]
        else:
            done = [d + latency_s for d in due]
        latency = [c - d for c, d in zip(done, due)]
        return rate, bm.phase_summary(due, latency, [0.0] * n, limit, 64)

    def test_highest_passing_rate_wins(self):
        phases = [self.phase(1000, 1e-4), self.phase(5000, 2e-4),
                  self.phase(9000, 5e-4)]
        got = bm.max_rate_under_limit(phases)
        self.assertAlmostEqual(got, 9000, delta=9000 * 0.01)

    def test_p99_over_limit_drops_the_rate(self):
        phases = [self.phase(1000, 1e-4), self.phase(5000, 2e-4),
                  self.phase(9000, 0.020)]
        self.assertAlmostEqual(bm.max_rate_under_limit(phases), 5000,
                               delta=50)

    def test_growing_backlog_drops_the_rate(self):
        # Overloaded at 9000: the backlog grows, and that alone fails the
        # phase even under a loose latency limit.
        _, over = self.phase(9000, 0.0, overload=True, n=200, limit=1.0)
        self.assertLess(over["tail_s"], 1.0)
        self.assertGreater(over["backlog_growth"], 64)
        self.assertFalse(over["meets_limit"])
        phases = [self.phase(1000, 1e-4), self.phase(5000, 2e-4),
                  (9000, over)]
        self.assertAlmostEqual(bm.max_rate_under_limit(phases), 5000,
                               delta=50)

    def test_no_passing_rate(self):
        self.assertEqual(bm.max_rate_under_limit([self.phase(1000, 1.0)]),
                         0.0)


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
