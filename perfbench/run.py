#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload adapt|serve_batch|serve_http \
        --seed N --seconds S --trace 0|1 [--trace-out PATH]

The first run configures and builds perfbench/ (the program's libraries
from src/ plus the benchmark program) under .bench_build/perfbench; later
runs only re-check the build. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. A traced run writes its Chrome
trace into the build directory unless --trace-out names another path.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: program sources (src/) not found next to perfbench/", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main(argv):
    out = build_dir()
    if not build(out):
        return 2
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1] != "0" and "--trace-out" not in args:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
        args += ["--trace-out", os.path.join(out, "trace-%s.json" % workload)]
    try:
        proc = subprocess.run([os.path.join(out, "perfbench")] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
