#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median and quartile spread against the bound in BENCHMARK.json.

    python3 perfbench/spread.py [--workload <name> ...] [--seeds 10] [--first-seed 1]

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
Python's statistics.quantiles(values, n=4). A metric is steady when its
spread is below a third of its bound; setup_s is reported but not held to
its bound. Exits non-zero when a run fails or a spread is too wide.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    ok = True
    for workload in args.workload or names:
        values = {m["name"]: [] for m in config["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = subprocess.run(
                config["command"] + ["--workload", workload, "--seed",
                                     str(seed), "--seconds",
                                     str(config["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = result.stdout.strip().splitlines()
            if result.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {result.returncode}\n"
                      f"{result.stderr[-2000:]}")
                ok = False
                continue
            for name, metric in json.loads(lines[-1])["metrics"].items():
                values[name].append(metric["value"])
        print(f"== {workload} ({args.seeds} seeds)")
        for metric in config["end_to_end"]:
            series = values[metric["name"]]
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            steady = spread < metric["bound"] / 3
            held = metric["name"] != "setup_s"
            ok &= steady or not held
            print(f"  {metric['name']:14} median {median:.6g} {metric['unit']:4}"
                  f" spread {spread:6.3f} bound {metric['bound']:.3f}"
                  f" {'ok' if steady else ('WIDE' if held else '(not held)')}"
                  f"  runs: {' '.join(f'{v:.4g}' for v in series)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
