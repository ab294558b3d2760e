#!/usr/bin/env python3
"""Builds the ifbench driver from this checkout's sources and runs one workload.

    python3 ifbench/run.py --workload serve_batch --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds into
.bench_build/ (Release); later runs only rebuild what changed. The driver
prints a report line and then, as the last line of standard output, the
result object {"correct", "attempted", "failed", "metrics"}. Every sketch
file and WAL directory lives in a private directory under
.bench_build/tmp/ that is removed however the run ends; traced runs
(--trace 1) leave their span file in .bench_build/spans/.

Exits nonzero without a result line when the sources are missing, the
build fails, or the driver fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
WORKLOADS = ("serve_batch", "serve_catalog", "ingest_live")
# Generous but below the 180 s a run may take; the first, building run
# is bounded by the build step's own timeout.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(f"ifbench: {message}", file=sys.stderr, flush=True)


def source_id():
    """The git commit when there is one, plus a digest of the library sources."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return f"git={sha} src-sha256={digest.hexdigest()[:16]}"


def build(env):
    """Configures (once) and builds the driver; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "ifbench",
                  "-j", "4"])
    for step in steps:
        try:
            # Build chatter goes to stderr: stdout carries only results.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
    return os.path.join(CMAKE_DIR, "ifbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke sizes (see smoke.py)")
    parser.add_argument("--perturb-expected", action="store_true",
                        help="corrupt one expected answer: checks must fail")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "engine.h")):
        log(f"no library sources under {ROOT}/src; run from a full checkout")
        return 2
    # Compiler and driver temporaries stay inside the checkout too.
    tmp_root = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_root)
    binary = build(env)
    if binary is None:
        return 1

    scratch = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", scratch, "--spans-dir", os.path.join(BUILD_DIR, "spans"),
        "--source-id", source_id(),
    ]
    if args.tiny:
        command.append("--tiny")
    if args.perturb_expected:
        command.append("--perturb-expected")
    try:
        return subprocess.run(command, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
