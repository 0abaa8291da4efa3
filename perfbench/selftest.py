"""Self-test of the benchmark at tiny sizes (about 30 seconds).

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that every workload completes and emits every metric declared in
BENCHMARK.json with its unit, that each output check rejects a perturbed
result, and that the benchmark refuses to run without the program's
sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
# The in-process checks see the benchmark's environment (run.py's Bench).
for name in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[name]
os.environ["REPRO_NATIVE_CACHE"] = os.path.join(ROOT, ".bench_build", "native")

import workloads  # noqa: E402

TINY = workloads.SCALES["tiny"]


def run_benchmark(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class WorkloadsComplete(unittest.TestCase):
    def check_result(self, proc, kind):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        self.assertEqual(units, declared(kind))
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            if kind == "end_to_end":
                self.assertGreater(metric["value"], 0, name)
        return result

    def test_end_to_end(self):
        for workload in ("paper-sweep", "campaign-small", "serve-open"):
            with self.subTest(workload=workload):
                self.check_result(run_benchmark(workload, 0), "end_to_end")

    def test_traced(self):
        for workload in ("paper-sweep", "campaign-small", "serve-open"):
            with self.subTest(workload=workload):
                proc = run_benchmark(workload, 1)
                metrics = self.check_result(proc, "per_layer")["metrics"]
                self.assertIn("trace.overhead_s", proc.stdout)
                self.assertIn("self time per layer", proc.stdout)
                self.assertIn("prediction ", proc.stdout)
                if workload == "paper-sweep":
                    self.assertEqual(metrics["core.evaluator.python_calls"]["value"], 0)
                if workload == "serve-open":
                    self.assertGreater(metrics["service.planner.computed"]["value"], 0)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper-sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class ChecksRejectPerturbedResults(unittest.TestCase):
    def test_paper_sweep(self):
        records = workloads.run_paper_sweep(TINY, 5)
        attempted, failures = workloads.check_paper_sweep(records, TINY, 5)
        self.assertEqual((attempted, failures), (6, []))
        off = json.loads(json.dumps(records))
        off[2]["expected_makespan"] *= 1 + 1e-6
        self.assertTrue(workloads.check_paper_sweep(off, TINY, 5)[1])
        skipped = json.loads(json.dumps(records))
        skipped[3]["evaluated"].pop("7")
        self.assertTrue(workloads.check_paper_sweep(skipped, TINY, 5)[1])
        unsearched = json.loads(json.dumps(records))
        unsearched[3]["evaluated"] = None
        self.assertTrue(workloads.check_paper_sweep(unsearched, TINY, 5)[1])
        self.assertTrue(workloads.check_paper_sweep(records[:-1], TINY, 5)[1])

    def test_campaign(self):
        from repro.cli import main as repro_main

        with tempfile.TemporaryDirectory() as workdir:
            with contextlib.redirect_stdout(io.StringIO()):
                code = repro_main(workloads.campaign_argv(TINY, 7, workdir))
            with open(os.path.join(workdir, "rows.csv")) as handle:
                rows = handle.read()
            with open(os.path.join(workdir, "report.txt")) as handle:
                report = handle.read()
        attempted, failures, _ = workloads.check_campaign(rows, report, code, TINY, 7)
        # one family x one size x 3 seeds x 14 heuristics
        self.assertEqual((attempted, failures), (42, []))
        lines = rows.splitlines()
        header = lines[0].split(",")
        ratio = header.index("overhead_ratio")
        cells = lines[1].split(",")
        cells[ratio] = "0.9"
        below_one = "\n".join([lines[0], ",".join(cells)] + lines[2:])
        self.assertTrue(workloads.check_campaign(below_one, report, 0, TINY, 7)[1])
        missing_row = "\n".join(lines[:-1])
        self.assertTrue(workloads.check_campaign(missing_row, report, 0, TINY, 7)[1])
        self.assertTrue(workloads.check_campaign(rows, report, 3, TINY, 7)[1])

    def test_serve(self):
        stream = workloads.serve_stream(TINY, 4)
        answers = {}
        for request in stream:
            if request.body not in answers:
                answers[request.body] = workloads.direct_answer(request.body)
        results = [
            {"body": r.body, "fresh": r.fresh, "sample": r.sample, "status": 200,
             "response": dict(answers[r.body])}
            for r in stream
        ]
        self.assertEqual(workloads.check_serve(results), [])
        repeat = next(i for i, r in enumerate(stream) if not r.fresh)
        changed = json.loads(json.dumps(results))
        changed[repeat]["response"]["n_checkpointed"] += 1
        self.assertTrue(workloads.check_serve(changed))
        sampled = next(i for i, r in enumerate(stream) if r.sample)
        drifted = json.loads(json.dumps(results))
        drifted[sampled]["response"]["expected_makespan"] *= 1 + 1e-12
        for result in drifted:  # keep repeats consistent with the drift
            if result["body"] == drifted[sampled]["body"]:
                result["response"] = drifted[sampled]["response"]
        self.assertTrue(workloads.check_serve(drifted))
        refused = json.loads(json.dumps(results))
        refused[1]["status"] = 503
        self.assertTrue(workloads.check_serve(refused))


class HostSpeedScaling(unittest.TestCase):
    def test_scaled_span(self):
        import hostspeed

        nominal = hostspeed.NOMINAL_S
        # Probes at the reference speed: the span minus the probe time.
        steady = [(1.0, nominal), (2.0, nominal), (3.0, nominal)]
        self.assertAlmostEqual(hostspeed.scaled_span(0.5, 3.5, steady), 3.0 - 3 * nominal)
        # A host twice as slow halves every gap; the gap between a slow and
        # a fast probe takes their mean.
        mixed = [(1.0, 2 * nominal), (2.0, 2 * nominal), (3.0, nominal)]
        expected = 0.5 / 2 + (1.0 - 2 * nominal) / 2 + (1.0 - 2 * nominal) / 1.5 + (0.5 - nominal)
        self.assertAlmostEqual(hostspeed.scaled_span(0.5, 3.5, mixed), expected)


if __name__ == "__main__":
    unittest.main(verbosity=2)
