#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 uwbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build (uwbench/CMakeLists.txt) goes
to .bench_build/uwbench, caches, logs and port files to .bench_work. The
last line of standard output is the result JSON; build output and
progress go to standard error. See uwbench/README.md for the workloads
and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "uwbench")
WORK = os.path.join(ROOT, ".bench_work")
TARGETS = ["uw_bench", "uwb_shard", "uw_serve", "uw_router"]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configure once; `cmake --build` re-runs configuration by itself
    # when a CMakeLists.txt changes.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-G",
                        "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                   TARGETS, stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--scale", choices=["bench", "tiny"], default="bench")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test fault injection (see selftest.py)")
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"uwbench: build failed: {error}", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, "uw_bench"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--scale={args.scale}", f"--bin-dir={BUILD}",
               f"--work-dir={WORK}",
               f"--data-dir={os.path.join(HERE, 'digests')}"]
    if args.corrupt:
        command.append("--corrupt")
    # uw_bench and every server it spawns share a new process group, so
    # nothing outlives the run even if uw_bench dies mid-way.
    bench = subprocess.Popen(command, start_new_session=True)
    try:
        return bench.wait()
    finally:
        try:
            os.killpg(bench.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


if __name__ == "__main__":
    sys.exit(main())
