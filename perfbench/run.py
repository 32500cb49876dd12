#!/usr/bin/env python3
"""Builds and runs SQLoop's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --list-metrics
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --workload <name> --seed <n> --seconds 1 --trace 0 --smoke

The SQLoop libraries and the benchmark program (perfbench/main.cpp) are
built from the source tree into .bench_build/ on first use; later runs
rebuild only what changed. The last line of stdout is the program's JSON result; build
output goes to stderr. A traced run writes a Chrome trace-event file to
.bench_build/traces/. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no SQLoop sources under {ROOT / 'src'}")
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        subprocess.run(
            ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (subprocess.SubprocessError, OSError) as error:
        fail(f"build failed: {error}")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--list-metrics", action="store_true")
    parser.add_argument("--self-test", action="store_true",
                        help="check that the oracles reject wrong answers")
    args = parser.parse_args()

    build()
    if args.list_metrics:
        command = [str(BINARY), "--list-metrics"]
    elif args.self_test:
        command = [str(BINARY), "--self-test"]
    elif args.workload:
        command = [str(BINARY), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--commit", source_id()]
        if args.smoke:
            command.append("--smoke")
        if args.trace:
            traces = BUILD / "traces"
            traces.mkdir(exist_ok=True)
            # One file per workload, overwritten by its latest traced run.
            command += ["--trace-file", str(traces / f"{args.workload}.json")]
    else:
        parser.error("--workload, --list-metrics or --self-test is required")

    # Spill files of bounded buffer pools go to TMPDIR: keep them in the
    # build directory.
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    sys.stdout.flush()
    try:
        result = subprocess.run(command, cwd=ROOT, env=env,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
