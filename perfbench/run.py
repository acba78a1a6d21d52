#!/usr/bin/env python3
"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload fleet_day --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout.  Builds the library and the perfbench
driver from source (Release) under .bench_build/, runs the driver's
self-tests, then one measured run of the workload.  Prints every metric as
"name value unit", then, as the last line, one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) named in
BENCHMARK.json.  Exits non-zero, without a result, when the build, the
self-tests or the run itself fails.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_day", "fleet_observed", "scarce_3group")
# A run must end within 180 s; keep a margin for start-up and output.
RUN_DEADLINE_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, **kwargs):
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")


def build(build_root, jobs):
    """Configure (once) and build the driver; returns its path."""
    if not os.path.isdir(os.path.join(HERE, os.pardir, "src")):
        fail("no library sources next to perfbench/ (run from a checkout)")
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_checked(cmd, 600, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--parallel", str(jobs)]
    if run_checked(cmd, 1200, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def metric_names(trace):
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = metric_names(args.trace)
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    driver = build(build_root, jobs)

    if run_checked([driver, "--selftest"], 60,
                   stdout=sys.stderr).returncode != 0:
        fail("self-tests failed")

    out_dir = os.path.join(build_root, "perfbench-out", args.workload)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace-seconds", str(args.seconds / 2 if args.trace else 0),
           "--threads", str(jobs), "--out", out_dir]
    started = time.monotonic()
    proc = run_checked(cmd, RUN_DEADLINE_S, stdout=subprocess.PIPE, text=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    result = json.loads(lines[-1])
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail(f"driver did not report {missing}")

    for line in lines[:-1]:
        print(line)
    print(f"# run took {time.monotonic() - started:.1f} s; "
          f"{result['failed']} of {result['attempted']} rack-epochs failed")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }))


if __name__ == "__main__":
    main()
