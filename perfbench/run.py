#!/usr/bin/env python3
"""Benchmark entry point: builds the program from the checkout, runs one
workload and prints its result as the last line of standard output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds into .bench_build/ (CMake, Release, the repository's own arch probe),
keeps per-run scratch in .bench_work/ and writes traced-pass spans to
.bench_out/, all under the repository root.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("wire_search_l2", "batch_scan_hidim", "wire_churn_cosine")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", "src", os.path.join("examples", "rabitq_server.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no program sources in %s (missing %s)" % (ROOT, needed))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    targets = ["perfbench", "perfbench_selftest", "rabitq_server"]
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def binary(name):
    for path in (os.path.join(BUILD, name), os.path.join(BUILD, "rabitq", name)):
        if os.path.exists(path):
            return path
    fail("built binary %s not found" % name)


def self_test():
    return subprocess.run([binary("perfbench_selftest")], stdout=sys.stderr,
                          stderr=sys.stderr, timeout=RUN_TIMEOUT_S).returncode == 0


def run(args):
    cmd = [binary("perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", binary("rabitq_server"), "--work", WORK, "--out", OUT]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload %s timed out" % args.workload)
    lines = [l for l in stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail("workload %s exited with %d" % (args.workload, proc.returncode))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    build()
    if not self_test():
        fail("the benchmark's check self-test failed")
    if args.self_test:
        return
    run(args)


if __name__ == "__main__":
    main()
