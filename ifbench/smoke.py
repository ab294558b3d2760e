#!/usr/bin/env python3
"""The benchmark's own smoke test: every workload at tiny sizes, in seconds.

    python3 ifbench/smoke.py

Run from the repository root. It checks that
  - each workload, untraced, passes its correctness checks (failed_share 0)
    and prints exactly the end-to-end metrics BENCHMARK.json declares, with
    their units, plus the ingest-only metrics in ingest_live's report;
  - each workload, traced, prints exactly the declared per-layer metrics
    and writes a non-empty span file;
  - feeding a perturbed expected answer makes each workload report
    failures (the checks can fail);
  - a directory holding only BENCHMARK.json and ifbench/ makes run.py exit
    nonzero without a result line.
Exits nonzero on the first broken expectation.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("serve_batch", "serve_catalog", "ingest_live")
# Reported only where they apply, so not in BENCHMARK.json's end_to_end.
INGEST_ONLY = {"ingest_rows_per_s": "rows/s", "freshness_p50_ms": "ms",
               "freshness_p90_ms": "ms"}


def fail(message):
    print(f"smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(workload, trace, extra=()):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        fail(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def expect_metrics(where, metrics, declared):
    names = [m["name"] for m in declared]
    if list(metrics) != names:
        fail(f"{where}: metrics {sorted(set(metrics) ^ set(names))} differ "
             "from BENCHMARK.json")
    for m in declared:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"{where}: {m['name']} unit {metrics[m['name']]['unit']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from the driver's")

    for workload in WORKLOADS:
        report, result = run(workload, 0)
        if not result["correct"] or result["failed"] != 0 or \
                report["failed_share"] != 0:
            fail(f"{workload}: checks failed: {report['checks']}")
        expect_metrics(workload, result["metrics"], spec["end_to_end"])
        if workload == "ingest_live":
            for name, unit in INGEST_ONLY.items():
                if report["metrics"].get(name, {}).get("unit") != unit:
                    fail(f"ingest_live: report lacks {name} [{unit}]")
        print(f"smoke: {workload}: end-to-end ok, "
              f"{result['attempted']} operations checked")

        report, result = run(workload, 1)
        if not result["correct"]:
            fail(f"{workload} traced: checks failed: {report['checks']}")
        expect_metrics(f"{workload} traced", result["metrics"],
                       spec["per_layer"])
        span_file = os.path.join(ROOT, report["span_file"]) \
            if not os.path.isabs(report["span_file"]) else report["span_file"]
        if not os.path.exists(span_file) or os.path.getsize(span_file) == 0:
            fail(f"{workload}: no span file at {span_file}")
        print(f"smoke: {workload}: per-layer ok, spans in {span_file}")

        report, result = run(workload, 0, ["--perturb-expected"])
        if result["correct"] or result["failed"] == 0 or \
                report["failed_share"] <= 0:
            fail(f"{workload}: a perturbed expected answer went unnoticed")
        print(f"smoke: {workload}: perturbed answer caught "
              f"(failed_share {report['failed_share']:.4g})")

    # Only the benchmark's own files: no sources to build, so no result.
    scratch = tempfile.mkdtemp(prefix="bare-",
                               dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(BENCH_DIR, os.path.join(scratch, "ifbench"))
        done = subprocess.run(
            [sys.executable, "ifbench/run.py", "--workload", "serve_batch",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180)
        if done.returncode == 0 or done.stdout.strip():
            fail("a bare benchmark directory produced a result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke: bare directory refused")
    print("smoke: PASS")


if __name__ == "__main__":
    main()
