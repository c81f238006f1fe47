#!/usr/bin/env python3
"""Builds the hsis benchmark driver from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: session_bulk, exchange_mix, query_zipf (see perfbench/README.md).
The driver is configured once into .bench_build/perfbench (Release) and
rebuilt incrementally on every run; the first run of a fresh checkout
compiles the library, later runs only check that it is up to date.

The driver reports every metric it measured. This script keeps the ones
BENCHMARK.json lists, in its order and with its units: "end_to_end" with
--trace 0, "per_layer" with --trace 1 (a per-layer metric the workload
does not touch reads 0). The last line of standard output is one JSON
object with the keys "correct", "attempted", "failed" and "metrics". The
exit status is 0 only when the run completed and every output check
passed.
"""

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD_DIR, "hsis_perfbench")
WORKLOADS = ("session_bulk", "exchange_mix", "query_zipf")
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the driver; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "library sources (src/CMakeLists.txt) not found under " + ROOT)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(2, tool + " not found on PATH")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if configure.returncode != 0:
            fail(3, "cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    compiled = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "hsis_perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    if compiled.returncode != 0:
        fail(3, "build failed")


def git_describe():
    """`git describe` of the checkout, when it carries git metadata."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "no-git-metadata"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def select_metrics(values, trace):
    """The BENCHMARK.json metrics of this kind of run, from the driver's."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        value = values.get(name, 0 if trace else None)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(4, "the driver reported no finite value for " + name)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail(2, "--seed must be >= 0 and --seconds >= 1")

    build()
    run_dir = os.path.join(
        RUNS_DIR, "%s-%d-%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # Address-space randomization moves the heap and stack between runs,
    # which alone shifts the single-threaded timings by up to a quarter;
    # running without it makes runs of one build comparable.
    prefix = ["setarch", platform.machine(), "-R"]
    if shutil.which("setarch") is None or subprocess.run(
            prefix + ["true"], capture_output=True, check=False).returncode:
        prefix = []
    try:
        proc = subprocess.run(
            prefix + [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch", run_dir, "--git-describe", git_describe()],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
            check=False)
    except subprocess.TimeoutExpired:
        fail(4, "run exceeded %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
        values = result.pop("values")
    except (ValueError, KeyError, AttributeError):
        sys.stdout.write(lines[-1] + "\n")
        fail(4, "the driver printed no result line (exit %d)" % proc.returncode)
    result["metrics"] = select_metrics(values, args.trace)
    if args.trace:
        print("\nper-layer metrics of BENCHMARK.json:")
        for name, metric in result["metrics"].items():
            print("  %-36s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
