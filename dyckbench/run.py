#!/usr/bin/env python3
"""Builds dyckfix in Release and runs one benchmark workload.

Run from the repository root:

    python3 dyckbench/run.py --workload longdoc-del --seed 1 --seconds 20 --trace 0

The first run configures and builds the repository's own CMake project
(unmodified, through dyckbench/CMakeLists.txt) into .bench_build/dyckbench;
later runs only re-check the build. Every run then executes the checker
self-test and the harness, whose last stdout line is the JSON result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(spans go to .bench_build/traces/). See dyckbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "dyckbench")
TRACES = os.path.join(BUILD_ROOT, "traces")
WORKLOADS = ["longdoc-del", "longdoc-sub", "corpus-zipf", "daemon-edit"]
HARNESS_TIMEOUT_S = 170


def fail(message, code=1):
    print("dyckbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path):
    """Runs cmd with its output in log_path; on failure shows the log tail."""
    with open(log_path, "w") as log:
        result = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    if result.returncode != 0:
        with open(log_path) as log:
            tail = log.read()[-4000:]
        fail("command failed: %s\n%s" % (" ".join(cmd), tail))


def build():
    for required in ("CMakeLists.txt", "src", "include/dyckfix.h", "tools"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail("no dyckfix sources at %s (missing %s)" % (ROOT, required), 2)
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, os.path.join(BUILD_ROOT, "configure.log"))
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target",
                "dyckbench_harness", "dyckbench_selftest", "dyckfixd"],
               os.path.join(BUILD_ROOT, "build.log"))


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "include", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as handle:
                digest.update(handle.read())
    return "nogit-src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    selftest = subprocess.run([os.path.join(BUILD, "dyckbench_selftest")],
                              capture_output=True, text=True)
    if selftest.returncode != 0:
        fail("checker self-test failed:\n" + selftest.stderr)
    os.makedirs(TRACES, exist_ok=True)
    cmd = [os.path.join(BUILD, "dyckbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(BUILD, "dyckfix", "tools", "dyckfixd"),
           "--revision", revision(), "--trace-dir", TRACES]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)
    if result.returncode != 0:
        fail("harness exited with %d" % result.returncode, result.returncode)


if __name__ == "__main__":
    main()
