#!/usr/bin/env python3
"""Build and run the Willow tick benchmark; print one JSON result line.

    python3 tickbench/run.py --workload churn_10k --seed 1 --seconds 15 --trace 0

Run from the repository root.  Builds tickbench/ (which compiles the
simulator libraries from src/) into $CARGO_TARGET_DIR/tickbench, or
.bench_build/tickbench when that variable is unset, then runs the tickbench
binary.  Its report is reduced to the metrics BENCHMARK.json lists: the
end-to-end ones with --trace 0, the per-layer ones with --trace 1.  The last
stdout line is {"correct", "attempted", "failed", "metrics"}.  Exits non-zero
when the build fails, when any check fails, or when the report is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("tickbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulation.h")):
        fail("simulator sources (src/) not found next to tickbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "tickbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "tickbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = build()
    cmd = [os.path.join(build_dir, "tickbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("tickbench did not finish within %d s" % RUN_TIMEOUT_S)

    report = None
    for line in proc.stdout.splitlines():
        if line.startswith("REPORT "):
            report = json.loads(line[len("REPORT "):])
        else:
            print(line)
    if report is None:
        fail("tickbench exited with %d and no report" % proc.returncode)

    metrics = {}
    for m in wanted:
        value = report["metrics"].get(m["name"])
        if not isinstance(value, (int, float)):
            fail("metric %s missing from the report" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = bool(report["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
