#!/usr/bin/env python3
"""Fast self-test of the benchmark at Tiny scale.

    python3 uwbench/selftest.py

Runs every workload for one second at the Tiny pipeline scale, untraced
and traced, and checks that each run ends with a well-formed result line
carrying every metric BENCHMARK.json names, with its unit, and no failed
request. Then it corrupts one served ranking in 64 (--corrupt) and checks
that the run reports the failures (fail_frac > 0, correct false). Exits
non-zero on the first violation. Takes about a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, extra=()):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny", *extra]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"FAIL {workload} trace={trace}: exit "
                         f"{done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"FAIL {workload}: result keys {sorted(result)}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                missing = sorted(set(expected) - set(got))
                extra = sorted(set(got) - set(expected))
                wrong = sorted(n for n in expected
                               if n in got and got[n] != expected[n])
                raise SystemExit(f"FAIL {workload} trace={trace}: missing "
                                 f"{missing} extra {extra} unit {wrong}")
            if not result["correct"] or result["failed"] != 0:
                raise SystemExit(f"FAIL {workload} trace={trace}: "
                                 f"{result['failed']} of "
                                 f"{result['attempted']} failed")
            if trace == 0:
                zero = [n for n, m in result["metrics"].items()
                        if not m["value"] > 0]
                if zero:
                    raise SystemExit(f"FAIL {workload}: zero metrics {zero}")
            print(f"ok {workload} trace={trace}: {result['attempted']} "
                  f"checked, {len(got)} metrics")
    corrupted = run("serve-retexpan", 0, ["--corrupt"])
    fail_frac = corrupted["failed"] / corrupted["attempted"]
    if corrupted["correct"] or fail_frac <= 0:
        raise SystemExit("FAIL corrupted rankings went undetected")
    print(f"ok corrupted rankings detected: fail_frac {fail_frac:.4f}")
    print("selftest passed")


if __name__ == "__main__":
    main()
