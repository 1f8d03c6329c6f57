#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload learn_drift --seed 1 --seconds 35 --trace 0

Run from the repository root. The first run configures and builds the
library sources plus the benchmark driver into $CARGO_TARGET_DIR (default
.bench_build); later runs only re-check the build. The driver's report is
passed through, and the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json with --trace 0, and every
per_layer metric with --trace 1 (a layer that does no work on the workload
reports 0). Exits non-zero, without that line, when the build or the run
fails, and non-zero with correct=false when a correctness check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        code = subprocess.call(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    if code != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail("command failed: " + " ".join(cmd))


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(build_dir, "configure.log"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "-j", jobs,
                "--target", "freeway_perfbench"],
               os.path.join(build_dir, "build.log"))
    return os.path.join(build_dir, "freeway_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            contract = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in contract["workloads"]]:
        fail("unknown workload " + args.workload)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spec-dir", os.path.join(HERE, "specs"), "--work-dir", work_dir]
    # Own process group, so a hung run can be stopped with every server
    # node it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("driver exited %d without a result" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    measured = result["per_layer"] if args.trace else result["end_to_end"]
    correct = bool(result["correct"]) and proc.returncode == 0
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None and not args.trace:
            print("CHECK FAILED: end-to-end metric %s not measured" % m["name"])
            correct = False
        value = got["value"] if got is not None else 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
