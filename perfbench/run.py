#!/usr/bin/env python3
"""Build the benchmark program from this checkout and run one workload.

    python3 perfbench/run.py --workload stream_pair --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
repository's libraries plus the benchmark binary under .bench_build/; later
runs rebuild incrementally. Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON result. With --trace 1 the spans of the
traced run are written to .bench_build/traces/.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("stream_pair", "joint_nway", "farm_cells")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "zigzag", "CMakeLists.txt")):
        sys.exit("perfbench: the repository sources are not next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per checkout, should runs ever overlap.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "--target", "zzperf", "-j", jobs]):
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "zzperf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
