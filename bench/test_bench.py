"""Self-tests of the benchmark: generators, output checks and metric names.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import copy
import json
import re
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from seqsub import adalloc, cli, oracle, qrewrite  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class GeneratorTest(unittest.TestCase):
    def test_byte_deterministic_per_seed(self):
        for name in workloads.GENERATORS:
            with self.subTest(workload=name):
                first = workloads.generate(name, 7)
                again = workloads.generate(name, 7)
                other = workloads.generate(name, 8)
                self.assertEqual(workloads.dumps(first.instance), workloads.dumps(again.instance))
                self.assertEqual(first.commands, again.commands)
                self.assertNotEqual(workloads.dumps(first.instance), workloads.dumps(other.instance))

    def test_alloc_large_horizon_follows_the_event_count(self):
        work = workloads.generate("alloc-large", 3)
        times, _ = workloads.greedy_exhaustions(work.instance, 10 * workloads.ALLOC_EVENTS,
                                                work.instance["horizon"])
        self.assertEqual(len(times), workloads.ALLOC_EVENTS)
        few = {"command": "allocate", "outputs": {"breakpoints": [1.0] * (workloads.ALLOC_MIN_EVENTS - 1)}}
        with self.assertRaises(workloads.ShapeError):
            workloads.report_guard("alloc-large", "allocate", few)

    def test_stream_sim_shape_matches_the_program(self):
        work = workloads.generate("stream-sim", 0)
        instance = adalloc.parse_instance(work.instance)
        strategy, ledger = adalloc.greedy_allocate(instance)
        exhausted = sum(1 for b, s in zip(instance.budgets, ledger.spent) if s >= b - 1e-9)
        self.assertEqual(len(strategy.segments), work.sizes["segments"])
        self.assertEqual(exhausted, work.sizes["exhausted"])
        self.assertGreaterEqual(len(strategy.segments), workloads.STREAM_MIN_SEGMENTS)
        self.assertGreaterEqual(exhausted, workloads.STREAM_MIN_EXHAUSTED_FRAC * instance.num_ads)

    def test_certify_small_is_within_the_oracle_guard(self):
        data = workloads.generate("certify-small", 0).instance
        self.assertLessEqual(len(data["ads"]) * len(data["query_types"]), workloads.CERTIFY_MAX_PAIRS)

    def test_certify_small_fixes_the_rewrite_oracle_work(self):
        for seed in range(4):
            data = workloads.generate("certify-small", seed).instance
            instance = qrewrite.parse_rewrite_instance(copy.deepcopy(data))
            calls = []
            original = oracle.lp_opt_fluid
            oracle.lp_opt_fluid = lambda *a, **k: calls.append(1) or original(*a, **k)
            try:
                oracle.brute_force_rewrite_opt(instance)
            finally:
                oracle.lp_opt_fluid = original
            self.assertEqual(len(calls), workloads.CERTIFY_UNIONS ** len(data["query_types"]))

    def test_eager_rewrite_call_count_matches_the_program(self):
        self.assertGreater(workloads.eager_rewrite_calls(28, 70, 3), workloads.REWRITE_MIN_STA_CALLS)
        data = copy.deepcopy(workloads.generate("certify-small", 0).instance)
        instance = qrewrite.parse_rewrite_instance(data)
        calls = []
        original = qrewrite.single_type_allocate
        qrewrite.single_type_allocate = lambda *a, **k: calls.append(1) or original(*a, **k)
        try:
            qrewrite.greedy_rewrite(instance)
        finally:
            qrewrite.single_type_allocate = original
        self.assertEqual(len(calls), workloads.eager_rewrite_calls(3, 6, 2))


class CheckTest(unittest.TestCase):
    """Negative controls: a tampered or failing report must count as failed."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.dir = Path(cls.tmp.name)
        cls.work = workloads.generate("certify-small", 0)
        cls.instance = cls.dir / "instance.json"
        cls.instance.write_bytes(workloads.dumps(cls.work.instance))
        cls.reports = {}
        for label in ("allocate-oracle", "rewrite-oracle"):
            out = cls.dir / f"{label}.json"
            argv = cls.work.argv(label, cls.instance) + ["--out", str(out)]
            assert cli.main(argv) == 0
            cls.reports[label] = json.loads(out.read_text())

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def record(self, checker, label, report, code=0):
        path = self.dir / f"{label}.checked.json"
        path.write_text(json.dumps(report))
        return checker.record(label, code, path)

    def test_untouched_reports_pass(self):
        checker = checks.Checker(self.work, self.instance)
        for label, report in self.reports.items():
            self.assertTrue(self.record(checker, label, report), checker.problems)
        self.assertEqual(checker.failed_frac, 0.0)

    def test_tampered_reports_fail(self):
        tamperings = {
            "utility": lambda r: r["outputs"].__setitem__("utility", r["outputs"]["utility"] * (1 + 1e-6)),
            "ratio": lambda r: r["outputs"].__setitem__("ratio", 0.5),
            "strategy": lambda r: r["outputs"]["strategy"][0].__setitem__("duration", 1e-3),
        }
        for what, tamper in tamperings.items():
            with self.subTest(tampered=what):
                report = copy.deepcopy(self.reports["allocate-oracle"])
                tamper(report)
                checker = checks.Checker(self.work, self.instance)
                self.assertFalse(self.record(checker, "allocate-oracle", report))
                self.assertEqual(checker.failed_frac, 1.0)

    def test_planted_violation_fails(self):
        out = self.dir / "verify.json"
        argv = ["verify", "--instance", str(self.instance), "--samples", "5", "--planted-violation",
                "--out", str(out)]
        code = cli.main(argv)
        self.assertEqual(code, cli.EXIT_VIOLATION)
        checker = checks.Checker(self.work, self.instance)
        self.assertFalse(checker.record("verify", code, out))
        self.assertFalse(checker.record("verify", 0, out))  # violations counted even on exit 0
        self.assertEqual(checker.failed_frac, 1.0)

    def test_fluid_gap_above_bound_fails(self):
        report = {"command": "simulate", "params": {},
                  "outputs": {"mean": 9.0, "std": 0.1, "fluid": 10.0}}
        checker = checks.Checker(self.work, self.instance)
        self.assertFalse(self.record(checker, "simulate", report))

    def test_reference_and_repeat_digests(self):
        label = "rewrite-oracle"
        report = self.reports[label]
        wrong = {self.work.name: {str(self.work.seed): {label: "0" * 64}}}
        self.assertFalse(self.record(checks.Checker(self.work, self.instance, wrong), label, report))
        right = {self.work.name: {str(self.work.seed): {label: checks.result_digest(report)}}}
        checker = checks.Checker(self.work, self.instance, right)
        self.assertTrue(self.record(checker, label, report))
        changed = copy.deepcopy(report)
        changed["outputs"]["utility"] += 1e-12
        self.assertFalse(self.record(checker, label, changed))
        self.assertFalse(self.record(checker, label, report, code=2))
        self.assertEqual((checker.attempted, checker.failed), (3, 2))

    def test_stats_block_is_not_a_result(self):
        report = copy.deepcopy(self.reports["rewrite-oracle"])
        report["outputs"]["stats"] = {"single_type_allocate_calls": 1}
        self.assertEqual(checks.result_digest(report), checks.result_digest(self.reports["rewrite-oracle"]))


class MetricTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_names_and_units_are_well_formed(self):
        names = [*run.END_TO_END, *run.PER_LAYER, *(w["name"] for w in self.spec["workloads"])]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        for unit in [*run.END_TO_END.values(), *run.PER_LAYER.values()]:
            self.assertTrue(UNIT.fullmatch(unit), unit)

    def test_benchmark_json_lists_what_the_benchmark_reports(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))
        computed = set(run.layer_metrics({})) | {m for m in run.PER_LAYER if m.startswith("trace.")}
        self.assertEqual(computed, set(run.PER_LAYER))

    def test_trimmed_mean_drops_one_outlier_each_side(self):
        self.assertEqual(run.trimmed_mean([1.0, 2.0, 3.0, 4.0, 100.0]), 3.0)
        self.assertEqual(run.trimmed_mean([2.0, 4.0]), 3.0)
        self.assertEqual(run.quartiles([1.0, 2.0, 30.0])["value"], 2.0)

    def test_normalized_uses_the_probes_on_either_side(self):
        ref = run.HOST_PROBE_REF_S
        scaled = run.normalized([10.0, 10.0], [ref, ref, 3 * ref])
        self.assertEqual(scaled, [10.0, 5.0])

    def test_self_time_subtracts_direct_children(self):
        spans = [
            ["cli.main", 0.0, 10.0, -1, None],
            ["adalloc.greedy_allocate", 1.0, 9.0, 0, {"events": 2, "segments": 3}],
            ["adalloc.best_configuration", 2.0, 5.0, 1, None],
            ["adalloc.best_configuration", 5.0, 6.0, 1, None],
        ]
        table = run.summarize(spans)
        self.assertEqual(table["cli.main"]["self_s"], 2.0)
        self.assertEqual(table["adalloc.greedy_allocate"]["self_s"], 4.0)
        self.assertEqual(table["adalloc.best_configuration"]["calls"], 2)
        metrics = run.layer_metrics(table)
        self.assertEqual(metrics["adalloc.best_configuration_s"], 4.0)
        self.assertEqual(metrics["adalloc.events"], 2)
        self.assertEqual(metrics["layer.adalloc_self_s"], 8.0)


if __name__ == "__main__":
    unittest.main()
