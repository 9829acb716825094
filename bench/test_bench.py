"""Self-tests of the benchmark.

    python3 -m unittest discover -s bench -p "test_*.py"

They check the benchmark, not defres: a wrong answer is counted, traced
counts repeat exactly, the sweep counts are the benchmark's own, and
``BENCHMARK.json`` names exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

COUNTS = (".calls", ".hits", ".misses", ".currsize", ".tableaux")


def first(workload: str, count: int, seed: int = 7) -> list:
    make_stream = workloads.WORKLOADS[workload][0]
    return list(itertools.islice(make_stream(seed), count))


class StubEvaluator(unittest.TestCase):
    def test_off_by_one_answers_give_error_rate_one(self):
        items = first("recursive", 8)
        for item in items:
            item.run = lambda run=item.run: run() + 1
        runs, _, _ = worker.timed_run(items, tracing.Memos(), 60, 1)
        attempted, failed, _ = worker.check_runs(items, runs)
        self.assertEqual(attempted, 8)
        self.assertEqual(failed / attempted, 1)

    def test_exceptions_count_as_failures(self):
        items = first("tableau", 3)
        items[1].run = lambda: 1 // 0
        runs, _, _ = worker.timed_run(items, tracing.Memos(), 60, 1)
        self.assertEqual(worker.check_runs(items, runs)[:2], (3, 1))

    def test_true_answers_give_error_rate_zero(self):
        items = first("recursive", 8)
        runs, _, _ = worker.timed_run(items, tracing.Memos(), 60, 1)
        self.assertEqual(worker.check_runs(items, runs)[:2], (8, 0))


class TracedCounts(unittest.TestCase):
    def traced(self, workload: str, count: int) -> dict:
        items = first(workload, count, seed=3)
        _, metrics, _ = worker.traced_run(items, tracing.Memos())
        return metrics

    def test_counts_repeat_for_one_seed(self):
        for workload, count in (("recursive", 30), ("tableau", 40)):
            with self.subTest(workload=workload):
                a, b = self.traced(workload, count), self.traced(workload, count)
                counts = {k: v for k, v in a.items() if k.endswith(COUNTS)}
                self.assertEqual(counts, {k: b[k] for k in counts})
                self.assertGreater(sum(counts.values()), 0)

    def test_tracing_is_removed_afterwards(self):
        before = dict(vars(workloads))
        self.traced("recursive", 5)
        self.assertEqual(dict(vars(workloads)), before)

    def test_layers_split_by_workload(self):
        recursive = self.traced("recursive", 30)
        tableau = self.traced("tableau", 40)
        self.assertGreater(recursive["abacus.n_quotient.calls"], 0)
        self.assertEqual(recursive["wreath.oracle_defres.calls"], 0)
        self.assertEqual(tableau["abacus.is_n_decomposable.calls"], 0)
        self.assertGreater(tableau["borderstrips.enumerate_m_bst.tableaux"], 0)
        self.assertTrue(0 < recursive["abacus.is_n_decomposable.true_ratio"] < 1)


class HostSpeed(unittest.TestCase):
    def test_scale_is_nominal_over_mean_reference_time(self):
        ticks = itertools.count(step=0.125)  # each reference sample takes 0.125 s
        speed = hostspeed.HostSpeed(clock=lambda: next(ticks))
        speed.sample()
        speed.sample()
        self.assertAlmostEqual(speed.scale(), hostspeed.NOMINAL_S / 0.125)

    def test_timer_samples_only_inside_with(self):
        speed = hostspeed.HostSpeed()
        with speed:
            time.sleep(10 * hostspeed.EVERY_S)
        taken = len(speed.samples)
        self.assertGreater(taken, 0)
        time.sleep(4 * hostspeed.EVERY_S)
        self.assertEqual(len(speed.samples), taken)

    def test_timed_run_reports_times_at_nominal_speed(self):
        items = first("recursive", 8)
        _, metrics, context = worker.timed_run(items, tracing.Memos(), 60, 1)
        self.assertGreater(context["reference_samples"], 0)
        self.assertAlmostEqual(
            context["busy_s"], context["host_scale"] * context["measured_s"]
        )

    def test_each_span_is_scaled_by_the_samples_near_it(self):
        speed = hostspeed.HostSpeed()
        speed.samples = [0.002] * 100 + [0.004] * 100
        speed.total_s = sum(speed.samples)
        speed.spans = [(10, 10), (150, 190), (100, 100)]
        fast, slow, edge = (hostspeed.NOMINAL_S / t for t in (0.002, 0.004, 0.003))
        scales = speed.span_scales()
        self.assertAlmostEqual(scales[0], fast)
        self.assertAlmostEqual(scales[1], slow)
        self.assertAlmostEqual(scales[2], edge)


class Memos(unittest.TestCase):
    def test_every_memo_is_found_and_emptied(self):
        memos = tracing.Memos()
        self.assertLessEqual(set(tracing.MEMOS), set(memos.memos))
        first("recursive", 1)[0].run()
        memos.clear()
        for memo in memos.memos.values():
            self.assertEqual(memo.cache_info().currsize, 0)


class WorkCounts(unittest.TestCase):
    def test_trivial_and_sign_sweep_has_8276_instances(self):
        self.assertEqual(sum(workloads.verify_cells(10, None).values()), 8276)

    def test_general_sweeps_cover_their_m(self):
        self.assertEqual(
            {m for m, _, _ in workloads.verify_cells(12, "2,1")}, {3}
        )
        self.assertEqual(
            {(m, n) for m, n, _ in workloads.verify_cells(12, "2,2")},
            {(4, 2), (4, 3)},
        )

    def test_a_sweep_with_missing_cells_fails_whole(self):
        item = workloads._verify_item("4", None)
        code, output = item.run()
        self.assertEqual(item.check((code, output)), 0)
        payload = json.loads(output)
        payload["cells"].pop()
        self.assertEqual(item.check((code, json.dumps(payload))), item.queries)


class Contract(unittest.TestCase):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def test_end_to_end_metrics_match(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]},
            run.END_TO_END_UNITS,
        )

    def test_per_layer_metrics_match(self):
        names = [m["name"] for m in self.spec["per_layer"]]
        metrics = TracedCounts().traced("tableau", 2)
        self.assertEqual(sorted(names), sorted(metrics))
        for m in self.spec["per_layer"]:
            self.assertEqual(m["unit"], run.per_layer_unit(m["name"]))

    def test_workloads_match(self):
        self.assertEqual(
            [w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS)
        )
        self.assertEqual(set(run.WORKLOADS), set(workloads.WORKLOADS))

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(BENCH.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "verify",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
