"""Self-tests of the benchmark's arithmetic (`metrics.py`).

`run.py` runs them before every benchmark run; standalone:

    python3 perfbench/test_metrics.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from metrics import Span  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile(values, "99.9"), 100)
        self.assertEqual(metrics.percentile(values, 0), 1)
        self.assertEqual(metrics.percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertEqual(metrics.percentile([], 50), 0.0)

    def test_tail_is_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(metrics.tail_percentile(list(range(19))))
        self.assertEqual(metrics.tail_percentile(list(range(1, 21))), ("50", 10))
        self.assertEqual(metrics.tail_percentile(list(range(1, 101))), ("90", 90))
        # 999 samples leave 9 beyond p99, so p90 is the tail.
        self.assertEqual(metrics.tail_percentile(list(range(1, 1000)))[0], "90")
        self.assertEqual(metrics.tail_percentile(list(range(1, 1001))), ("99", 990))
        self.assertEqual(metrics.tail_percentile(list(range(59326)))[0], "99.9")
        for n in (20, 137, 1000, 59326):
            p, _ = metrics.tail_percentile(list(range(n)))
            self.assertGreaterEqual(metrics.beyond(n, p), 10)

    def test_draw_seeds(self):
        self.assertEqual(metrics.draw_seeds(7, 1), [7])
        draws = metrics.draw_seeds(0, 3)
        # SplitMix64's published first outputs for state 0.
        self.assertEqual(draws, [0, 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4])
        self.assertTrue(set(metrics.draw_seeds(1, 4)).isdisjoint(metrics.draw_seeds(2, 4)))
        self.assertTrue(all(0 <= d < 2**64 for d in metrics.draw_seeds(2**64 - 1, 4)))


class SelfTime(unittest.TestCase):
    def test_children_count_once_and_only_inside_the_span(self):
        parent = Span(0, None, "cell", 0, 100)
        children = [Span(1, 0, "solver", 10, 20), Span(2, 0, "solver", 15, 30),
                    Span(3, 0, "measure", 90, 120)]
        self.assertAlmostEqual(metrics.self_seconds(parent, children), 70e-9)

    def test_no_children(self):
        self.assertAlmostEqual(metrics.self_seconds(Span(0, None, "cell", 5, 50), []), 45e-9)


def synthetic_exact():
    ms = 1_000_000
    spans = [Span(0, None, "pass", 0, 100 * ms), Span(1, 0, "setup", 0, 1 * ms),
             Span(2, 0, "cell", 1 * ms, 51 * ms), Span(3, 2, "solver", 2 * ms, 32 * ms),
             Span(4, 2, "measure", 40 * ms, 45 * ms), Span(5, 0, "cell", 51 * ms, 100 * ms),
             Span(6, 5, "solver", 52 * ms, 92 * ms)]
    counters = {
        "exact": dict(cells=2, rounds=7, moves=5, solver_calls=2, improving=1, view_nodes=30,
                      cache_skips=6, cache_rebuilds=2),
        "scale": dict(rounds=0, dirty=0, proposals=0, applied=0, conflicts=0),
    }
    return metrics.Trace(spans), counters


def synthetic_scale():
    spans = [Span(0, None, "pass", 0, 1000), Span(1, 0, "cell", 0, 1000),
             Span(2, None, "round1", 1000, 2000), Span(3, 2, "round", 1000, 1400),
             Span(4, 2, "ball", 1400, 1450), Span(5, 2, "respond", 1450, 1750),
             Span(6, 2, "apply", 1750, 1760)]
    counters = {
        "exact": dict(cells=0, rounds=0, moves=0, solver_calls=0, improving=0, view_nodes=0,
                      cache_skips=0, cache_rebuilds=0),
        "scale": dict(rounds=4, dirty=400, proposals=40, applied=10, conflicts=30),
    }
    return metrics.Trace(spans), counters


def layers(trace, counters):
    journal = {"bytes": 300, "converged": 1, "cells": 2, "failed": 0}
    serial = {"wall_s": 0.08}
    return metrics.layer_metrics(trace, counters, serial, 0.05, 2, {"journal": journal})


class LayerMetrics(unittest.TestCase):
    def test_names_and_units_follow_per_layer(self):
        for trace, counters in (synthetic_exact(), synthetic_scale()):
            got = layers(trace, counters)
            self.assertEqual([(n, m.unit) for n, m in got.items()],
                             [(n, u) for n, u, _ in metrics.PER_LAYER])

    def test_every_ratio_is_reported_with_its_base(self):
        ratio_marks = ("_frac", ".share", "_eff", "_mean", "_per_")
        for trace, counters in (synthetic_exact(), synthetic_scale()):
            for name, m in layers(trace, counters).items():
                if any(mark in name for mark in ratio_marks):
                    self.assertIsNotNone(m.base, name)
                    self.assertIn(" / ", m.base, name)
                    self.assertIn(name + " ", m.line(name))
        got = layers(*synthetic_exact())
        self.assertIn("= solver.busy_s 0.07 / traced pass s 0.1", got["solver.share"].line(""))

    def test_exact_layers(self):
        m = layers(*synthetic_exact())
        self.assertEqual(m["solver.calls"].value, 2)
        self.assertAlmostEqual(m["solver.busy_s"].value, 0.070)
        self.assertAlmostEqual(m["solver.share"].value, 0.7)
        self.assertAlmostEqual(m["solver.improving_frac"].value, 0.5)
        self.assertAlmostEqual(m["solver.view_mean"].value, 15.0)
        self.assertAlmostEqual(m["dynamics.skip_frac"].value, 6 / 8)
        # Cell spans 50 + 49 ms minus solver 30 + 40 ms and measure 5 ms.
        self.assertAlmostEqual(m["dynamics.self_s"].value, 0.024)
        self.assertAlmostEqual(m["dynamics.measure_s"].value, 0.005)
        self.assertAlmostEqual(m["experiments.parallel_eff"].value, 0.08 / (2 * 0.05))
        self.assertAlmostEqual(m["experiments.trace_overhead_s"].value, 0.1 - 0.08)
        self.assertAlmostEqual(m["experiments.cell_ms_p50"].value, 49.0)
        self.assertAlmostEqual(m["experiments.converged_frac"].value, 0.5)
        self.assertEqual(m["scale.round1_s"].value, 0.0)

    def test_scale_layers(self):
        m = layers(*synthetic_scale())
        self.assertAlmostEqual(m["scale.applied_frac"].value, 0.25)
        self.assertAlmostEqual(m["scale.respond_per_applied"].value, 40.0)
        self.assertAlmostEqual(m["scale.round1_s"].value, 400e-9)
        self.assertAlmostEqual(m["scale.resolve_s"].value, (400 - 50 - 300 - 10) * 1e-9)
        self.assertEqual(m["dynamics.self_s"].value, 0)
        self.assertEqual(m["solver.calls"].value, 0)


class BenchmarkJson(unittest.TestCase):
    def test_matches_what_run_py_reports(self):
        import run

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(metrics.PER_LAYER))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
