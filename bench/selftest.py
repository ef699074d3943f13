"""Self-tests of the benchmark's own parts.

    python3 bench/selftest.py

Not named test_*.py on purpose: the repository's test suite does not
collect it.
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(100, 0, -1))
        self.assertEqual(run.tail(values), (90, 90.0))

    def test_smallest_sample_count(self):
        value, pct = run.tail([5.0] + [1.0] * 10)
        self.assertEqual(value, 1.0)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_exactly_ten_beyond_with_ties(self):
        values = [3.0] * 12 + [7.0] * 10
        value, pct = run.tail(values)
        self.assertEqual(value, 3.0)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 100.0 * 12 / 22)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            run.tail([1.0] * 10)


class Oracle(unittest.TestCase):
    def setUp(self):
        self.sx = run.load_socsir()

    def test_mb_oracle_matches_simulate_on_one_grid_point(self):
        sx = self.sx
        preset = sx.covid_mitigation_presets()[0]
        p = sx.preset_params(preset)
        q = inputs.SCAN_GRID[49]
        pool = p.N - 1.0
        s2 = q * pool
        init = sx.StateMB(S1=sx.exact_complement(pool, s2), S2=s2,
                          A1=0.0, A2=0.0, Is=1.0, R=0.0)
        t1, dt = sx.scenarios.SCAN_T1, sx.scenarios.SCAN_DT
        traj = sx.simulate(sx.ModelKind.MB, p, init, 0.0, t1, dt)
        want = sx.peak_of(traj, sx.observables_for(sx.ModelKind.MB)["I"])[1]
        got = oracle.mb_peak_I(oracle.rates_of(p), tuple(init), t1, dt)
        self.assertLessEqual(abs(got - want), 1e-9 * want)

    def test_time_grid_matches_simulate(self):
        sx = self.sx
        p = sx.validate_params(inputs.CLI_BASE["ma"] | {"N": 100.0}, sx.ModelKind.MA)
        init = sx.resolve_init(sx.ModelKind.MA, p, sx.INIT_RULE_DFE_PLUS_ONE)
        for t1, every in ((101.0, 1), (101.0, 5), (100.0, 5), (37.5, 3)):
            traj = sx.simulate(sx.ModelKind.MA, p, init, 0.0, t1, 2.0, every)
            self.assertEqual(oracle.time_grid(0.0, t1, 2.0, every)[1], len(traj))


class Samplers(unittest.TestCase):
    def test_copied_ranges_match_tests_samplers(self):
        spec = importlib.util.spec_from_file_location(
            "_samplers", ROOT / "tests" / "_samplers.py")
        samplers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(samplers)
        kinds = samplers.ModelKind
        for seed in range(5):
            ours, theirs = random.Random(seed), random.Random(seed)
            for k in range(200):
                mb = k % 2 == 1
                self.assertEqual(
                    inputs.draw_raw_params(ours, mb),
                    samplers.draw_raw_params(theirs, kinds.MB if mb else kinds.MA))


class Manifest(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_the_runner_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], list(workloads.PER_LAYER))
        self.assertEqual(
            [w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
