#!/usr/bin/env python3
"""The repo benchmark's one command: build, generate seeded inputs, run a workload.

Run from the repository root:

    python3 perfbench/run.py --workload contain_exact --seed 1 --seconds 24 --trace 0

Workloads: contain_exact, contain_compact, serve_loopback (see README.md).
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; build output goes to standard error.

The benchmark builds the repository's libraries from ./src into
$CARGO_TARGET_DIR (default .bench_build) and caches each seed's generated
trace there, both under a name keyed by the checkout's path.  A run whose
verdicts differ from the seed's reference exits non-zero without a result
line.
"""
import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("contain_exact", "contain_compact", "serve_loopback")
RUN_TIMEOUT_S = 170  # a run must end within 180 s


def main():
    here = os.path.dirname(os.path.realpath(__file__))
    root = os.path.dirname(here)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small trace")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip the reference digest (the run must fail)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no repository sources next to perfbench/ (src/CMakeLists.txt)")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    # Checkouts that share $CARGO_TARGET_DIR never build, or check verdicts
    # against a reference, from each other's sources.
    key = hashlib.sha256(root.encode()).hexdigest()[:12]
    build_dir = os.path.join(build_root, "perfbench-" + key)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--data", os.path.join(build_root, "data-" + key)]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
