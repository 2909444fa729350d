#!/usr/bin/env python3
"""Self-test of the repo benchmark: a tiny-scale run of every workload.

For every workload run.py knows (contain_exact too, which BENCHMARK.json
leaves out; see README.md) it checks that
  * an untraced run prints every end-to-end metric, and a traced run every
    per-layer metric, on a human-readable line as "name value unit" and in
    the result line with the same unit (and no other metric);
  * the result line has exactly the keys correct, attempted, failed, metrics;
  * a run against a corrupted reference digest exits non-zero and prints no
    result line.

Run from the repository root:  python3 perfbench/selftest.py
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("contain_exact", "contain_compact", "serve_loopback")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_run(workload, trace, metrics):
    errors = []
    proc = run(workload, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = result_line(proc.stdout)
    if result is None:
        return ["no JSON result line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        errors.append("result not correct or nothing attempted")
    if result.get("failed") != 0:
        errors.append(f"{result.get('failed')} operation(s) failed")
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in metrics}:
        errors.append(f"metric names differ: {sorted(set(got) ^ {m['name'] for m in metrics})}")
    for m in metrics:
        entry = got.get(m["name"])
        if entry is None or entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{m['name']}: bad result entry {entry}")
        printed = re.compile(rf"^\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}(\s|$)", re.M)
        if not printed.search(proc.stdout):
            errors.append(f"{m['name']}: not printed with unit {m['unit']}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in WORKLOADS:
        checks = [
            ("untraced", check_run(workload, 0, spec["end_to_end"])),
            ("traced", check_run(workload, 1, spec["per_layer"])),
        ]
        corrupt = run(workload, 0, "--corrupt-reference")
        checks.append(("corrupt reference",
                       [] if corrupt.returncode != 0 and result_line(corrupt.stdout) is None
                       else ["a corrupted reference digest did not fail the run"]))
        for name, errors in checks:
            print(f"{workload} {name}: {'ok' if not errors else 'FAIL'}")
            for e in errors:
                print(f"  {e}")
            failures += len(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
