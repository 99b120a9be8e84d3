"""Fast test of the benchmark itself: tiny workloads, metric names, output checks.

    python3 perfbench/selftest.py

Runs every workload at 6 individuals x 3 generations, traced and untraced,
asserts that every metric BENCHMARK.json names is reported, and that each
output check rejects a hand-built bad input. Not collected by pytest on
purpose: the repository's own test suite does not depend on the benchmark.
"""
from __future__ import annotations

import copy
import json
import shutil
import unittest
from dataclasses import replace

import numpy as np

import run
import worker
from tracer import Tracer

worker.import_bwopt()

import bwopt.evolution as evolution  # noqa: E402
from bwopt.experiment import ExperimentResult, resolve_scenario  # noqa: E402

TINY = {"population": 6, "generations": 3}
SCENARIO = resolve_scenario(worker.SCENARIO)


def tiny_pass(name: str, trace: bool, ea_seed: int = 1000) -> dict:
    return worker.run_pass(name, ea_seed, SCENARIO, trace, load_s=0.004, **TINY)


class MetricNames(unittest.TestCase):
    def test_benchmark_json_lists_what_the_benchmark_reports(self):
        spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(worker.WORKLOADS))

    def test_every_workload_reports_every_metric(self):
        for name, workload in worker.WORKLOADS.items():
            with self.subTest(workload=name):
                passes = [tiny_pass(name, False, 1000), tiny_pass(name, False, 1001)]
                per_pass = len(workload.variants)
                for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
                    repeat = tiny_pass(name, trace, 1000)
                    summary = run.summarize(passes, repeat, [0.2, 0.21], trace, None, per_pass)
                    result = summary["result"]
                    self.assertTrue(result["correct"], [r["problems"] for p in passes for r in p["runs"]])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(result["attempted"], 3 * per_pass)
                    self.assertEqual(set(result["metrics"]), set(names))
                    self.assertEqual(summary["absent"], [])
                layers = repeat["layers"]
                self.assertGreater(layers["objectives.evaluate.calls"], 0)
                if workload.kind == "experiment":
                    self.assertGreater(layers["metrics.hv.recursion_calls"], 0)
                    self.assertGreater(layers["experiment.files_written"], 0)

    def test_traced_pass_restores_the_originals(self):
        import bwopt.wave as wave

        dominates, run_spea2 = evolution.dominates, evolution.run_spea2
        tiny_pass("spea2_angular", True)
        self.assertIs(evolution.dominates, dominates)
        self.assertIs(evolution.run_spea2, run_spea2)
        self.assertIsInstance(wave.ObstacleSet.__dict__["from_pairs"], classmethod)
        self.assertFalse(hasattr(wave.ObstacleSet.__dict__["from_pairs"].__func__, "__wrapped__"))

    def test_missing_name_is_absent_not_an_error(self):
        tracer = Tracer()
        tracer.span("bwopt.evolution:no_such_function", "x")
        tracer.count("bwopt.wave:NoSuchClass.method", "y")
        self.assertEqual(tracer.absent, ["bwopt.evolution:no_such_function", "bwopt.wave:NoSuchClass.method"])
        tracer.restore()


class OutputChecksRejectBadInput(unittest.TestCase):
    def test_budget(self):
        self.assertEqual(worker.budget_problems([(0, 6), (1, 12), (2, 18)], 6, 3), [])
        self.assertTrue(worker.budget_problems([(0, 6), (1, 12), (2, 17)], 6, 3))
        self.assertTrue(worker.budget_problems([(0, 6), (1, 12)], 6, 3))

    def test_front(self):
        good = np.array([[0.0, 1.0], [1.0, 0.0]])
        self.assertEqual(worker.front_problems(good, [0, 0]), [])
        self.assertTrue(worker.front_problems(np.vstack([good, [[1.0, 1.0]]]), [0, 0, 0]))
        self.assertTrue(worker.front_problems(good, [0, 2]))

    def test_hypervolume_never_decreases(self):
        self.assertEqual(worker.monotone_problems([0.0, 1.0, 1.0, 2.5]), [])
        self.assertTrue(worker.monotone_problems([0.0, 1.0, 0.9]))
        first = np.array([[0.0, 1.0], [1.0, 0.0]])
        self.assertEqual(worker.coverage_problems([first, np.array([[0.0, 1.0], [0.5, 0.0]])]), [])
        self.assertTrue(worker.coverage_problems([first, np.array([[0.0, 1.0]])]))

    def test_history(self):
        config = replace(evolution.EAConfig(), population_size=6, archive_size=6, generations=3, seed=1)
        history = evolution.run_spea2(config, SCENARIO)
        self.assertEqual(worker.history_problems(history, SCENARIO), [])
        bad = copy.deepcopy(history)
        bad.greedy_violations = 1
        self.assertTrue(worker.history_problems(bad, SCENARIO))
        bad = copy.deepcopy(history)
        bad.records[1].model_runs += 1
        self.assertTrue(worker.history_problems(bad, SCENARIO))
        bad = copy.deepcopy(history)
        worse = copy.deepcopy(bad.records[-1].front[0])
        worse.point = worse.point + 1.0
        bad.records[-1].front.append(worse)
        self.assertTrue(worker.history_problems(bad, SCENARIO))

    def test_experiment(self):
        workload = worker.WORKLOADS["experiment_greedy"]
        out_dir = worker.OUT_DIR / "selftest-tree"
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            plan, result, error = worker.run_experiment_pass(workload, 1, SCENARIO, 6, 3, out_dir)
            runs, *_ = worker.check_experiment(plan, result, error, out_dir, SCENARIO)
            self.assertEqual([r["problems"] for r in runs], [[]] * len(runs))
            seed = plan.seeds[0]
            failing = ExperimentResult(out_dir, result.reference, result.summary_rows,
                                       [{"variant": "de_angular_greedy", "seed": seed, "error": "boom"}])
            runs, *_ = worker.check_experiment(plan, failing, None, out_dir, SCENARIO)
            self.assertEqual([r["label"] for r in runs if r["problems"]], [f"de_angular_greedy/seed_{seed}"])
            snapshots = out_dir / "spea2_angular_greedy" / f"seed_{seed}" / "snapshots.csv"
            lines = snapshots.read_text().splitlines()
            cells = lines[-1].split(",")
            cells[3] = "0.0"
            snapshots.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
            runs, *_ = worker.check_experiment(plan, result, None, out_dir, SCENARIO)
            self.assertTrue(runs[0]["problems"])
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def test_repeats_must_agree(self):
        first, repeat = tiny_pass("spea2_angular", False), tiny_pass("spea2_angular", False)
        self.assertEqual(run.repeat_problems(first, repeat), [])
        repeat["digest"] = "0" * 64
        repeat["counts"]["evaluations"] += 1
        self.assertEqual(len(run.repeat_problems(first, repeat)), 2)
        summary = run.summarize([first], repeat, [0.2], False, None, 1)
        self.assertFalse(summary["result"]["correct"])
        self.assertEqual(summary["result"]["failed"], 1)


if __name__ == "__main__":
    unittest.main()
