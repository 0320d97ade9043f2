#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload <faas_billing|compute_jobs|tenant_churn>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and builds a
Release copy of the libraries in src/ plus the benchmark driver under
$CARGO_TARGET_DIR (default .bench_build) in the repository; later runs only
rebuild what changed. The driver's stdout is passed through: a fingerprint
line first and, as the last line, one JSON object with the keys correct,
attempted, failed and metrics. The exit code is the driver's (0 only when
the correctness gate passed); a failed build exits 3 and prints no result.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("faas_billing", "compute_jobs", "tenant_churn")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(directory):
    """Configures (once) and builds the driver; False on any failure."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        steps = []
        if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", directory,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", directory, "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                print("perfbench: build step failed: %s" % error,
                      file=sys.stderr)
                return False
            if done.returncode != 0:
                return False
    return True


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return "git-" + done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    directory = build_dir()
    if not build(directory):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(directory, "acctee_perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source", source_id()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        well_formed = isinstance(result, dict) and set(result) == RESULT_KEYS
    except ValueError:
        well_formed = False
    if not well_formed:
        sys.stderr.write(done.stdout)
        print("perfbench: driver printed no result (exit %d)" % done.returncode,
              file=sys.stderr)
        return done.returncode or 5
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
