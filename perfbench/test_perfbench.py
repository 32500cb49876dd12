#!/usr/bin/env python3
"""The benchmark's own tests: a tiny-size run of every workload, traced and
untraced; the oracles against perturbed answers; the metric list against
BENCHMARK.json and README.md; and a run without the program's sources.

    python3 perfbench/test_perfbench.py
"""
import json
import pathlib
import shutil
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run(*args, cwd=ROOT):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def listed_metrics():
    """(kind, name, unit, better, moves) rows of --list-metrics."""
    result = run("--list-metrics")
    assert result.returncode == 0, result.stderr
    return [tuple(line.split("\t")) for line in result.stdout.splitlines()]


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        result = run("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
        self.assertEqual(result.returncode, 0, result.stderr[-3000:])
        output = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertEqual(set(output), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(output["correct"])
        self.assertEqual(output["failed"], 0)
        self.assertGreaterEqual(output["attempted"], 1)
        expected = CONFIG["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {name: metric["unit"] for name, metric in output["metrics"].items()},
            {metric["name"]: metric["unit"] for metric in expected})
        if not trace:
            for name, metric in output["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        self.assertIn('"samples_jobs"', result.stdout)  # provenance line
        return result

    def test_every_workload_untraced(self):
        for workload in CONFIG["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_run(workload["name"], 0)

    def test_every_workload_traced(self):
        for workload in CONFIG["workloads"]:
            with self.subTest(workload=workload["name"]):
                result = self.check_run(workload["name"], 1)
                self.assertIn("span self times", result.stdout)
                trace = (ROOT / ".bench_build" / "traces" /
                         f"{workload['name']}.json")
                events = json.loads(trace.read_text())["traceEvents"]
                layers = {event["cat"] for event in events}
                self.assertTrue({"bench", "graph", "core", "dbc"} <= layers,
                                layers)
                if workload["name"] == "tenant-mix":
                    self.assertIn("server", layers)
                ids = {event["args"]["span_id"] for event in events}
                for event in events:
                    parent = event["args"]["parent_id"]
                    self.assertTrue(parent == 0 or parent in ids, event)


class OracleTest(unittest.TestCase):
    def test_oracles_reject_perturbed_answers(self):
        result = run("--self-test")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("self-test passed", result.stdout)
        self.assertNotIn("FAIL", result.stdout)


class MetricListTest(unittest.TestCase):
    def test_list_matches_benchmark_json(self):
        rows = listed_metrics()
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(
                [(name, unit, better) for k, name, unit, better, _ in rows
                 if k == kind],
                [(m["name"], m["unit"], m["better"]) for m in CONFIG[kind]])

    def test_readme_table_matches_list(self):
        readme = (ROOT / "perfbench" / "README.md").read_text()
        for kind, name, unit, _, moves in listed_metrics():
            self.assertIn(f"| `{name}` | {unit} | {moves} |", readme)


class StandaloneTest(unittest.TestCase):
    def test_fails_without_program_sources(self):
        scratch = ROOT / ".bench_build" / "standalone"
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", scratch / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        result = subprocess.run(
            CONFIG["command"] + ["--workload", "tenant-mix", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180)
        shutil.rmtree(scratch)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"metrics"', result.stdout)


if __name__ == "__main__":
    unittest.main()
