#!/usr/bin/env python3
"""FedPower benchmark entry point.

    python3 perfbench/run.py --workload fleet_train|paper_protocol|serve_tcp \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, Release) into .bench_build; later
calls only re-run the incremental build. The workload's result is the last
line of standard output, one JSON object; build logs and diagnostics go to
standard error. A traced run also writes .bench_build/traces/<workload>.json
(Chrome trace-event format, opens in Perfetto).
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fleet_train", "paper_protocol", "serve_tcp")
RUN_TIMEOUT_S = 170


def build():
    """Configures on first use, then builds the perfbench target."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no FedPower sources in %s" % ROOT, file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3

    work = os.path.join(BUILD, "work", args.workload)
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work,
               "--trace-out", os.path.join(traces, args.workload + ".json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                                timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
