#!/usr/bin/env python3
"""Build and run one perfbench workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/CMakeLists.txt (which builds the library
from ../src) into .bench_build/ in the current directory, then runs the
benchmark binary and forwards its output. The last line printed is the
result object; the exit code is the binary's, or non-zero (with no result
printed) when the build fails or the result does not list exactly the
metrics BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"] for m in spec[key]}


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    for key in ("--workload", "--seed", "--seconds", "--trace"):
        if key not in args:
            log("usage: run.py --workload NAME --seed N --seconds S "
                "--trace 0|1")
            return 2
    binary = build()
    if binary is None:
        return 1
    cmd = [binary] + argv + ["--out-dir", OUT_DIR]
    try:
        # A run takes 30-45 s; anything near the 180 s limit is a hang.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within 170 s; killed")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1] if lines else ""
    sys.stdout.write("\n".join(body) + ("\n" if body else ""))
    try:
        result = json.loads(last)
    except ValueError:
        print(last, flush=True)
        log(f"benchmark exited {proc.returncode} without a result")
        return proc.returncode or 1
    want = declared_metrics(args["--trace"])
    got = set(result.get("metrics", {}))
    if want is not None and got != want:
        log(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}"
            f", extra {sorted(got - want)}")
        return 1
    print(last, flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
