#!/usr/bin/env python3
"""The repository benchmark: builds perfbench and runs one workload.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload pipeline|fleet|online --seed N \\
      --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first form builds the benchmark binary (a Release CMake build of
perfbench/ and the libraries under src/, in .bench_build/), runs the
workload in its own process and prints its report; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of a traced run.

On the default seed the run's digest of simulated outputs must equal the
one committed in perfbench/digests.json; a mismatch is a failed operation.

--selftest runs every workload briefly and checks that each metric named
in BENCHMARK.json is printed with its unit, that two traced runs on one
seed report identical counts, that a wrong digest is reported as failed
operations, and that the default seed reproduces the committed digests.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "coign_perfbench")
WORKLOADS = ("pipeline", "fleet", "online")
RUN_TIMEOUT_S = 170
# Metrics that come from wall-clock time; every other per-layer metric is
# a count that must repeat exactly on the same seed.
TIMED_UNITS = ("ms", "s", "1/s", "x")
TIMED_NAMES = ("bench.trace_overhead_pct",)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Coign sources beside perfbench/ (expected src/CMakeLists.txt)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # One build at a time per checkout.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            run_build_step(configure)
        jobs = str(max(1, min(os.cpu_count() or 1, 4)))
        run_build_step(["cmake", "--build", BUILD, "--target", "coign_perfbench", "-j", jobs])


def run_build_step(command):
    # Build chatter goes to stderr: standard output ends with the result.
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(command))


def committed_digests():
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, short=False, expect_digest=None):
    """Runs the binary; returns (exit code, stdout text)."""
    run_dir = os.path.join(ROOT, ".bench_build", "run-" + workload)
    os.makedirs(run_dir, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--run-dir", run_dir]
    if short:
        command.append("--short")
    if expect_digest:
        command += ["--expect-digest", expect_digest]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % workload)
    return result.returncode, result.stdout


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    digests = committed_digests()
    problems = []

    def check_metrics(workload, result, wanted, label):
        got = result["metrics"]
        for metric in wanted:
            entry = got.get(metric["name"])
            if entry is None:
                problems.append("%s %s: missing %s" % (workload, label, metric["name"]))
            elif entry.get("unit") != metric["unit"]:
                problems.append("%s %s: %s unit %r, want %r" % (
                    workload, label, metric["name"], entry.get("unit"), metric["unit"]))

    for workload in WORKLOADS:
        code, out = run_workload(workload, 7, 1, False, short=True)
        result = last_json(out) if code == 0 else None
        if result is None or result["failed"] != 0 or not result["correct"]:
            problems.append("%s short run failed (exit %d)" % (workload, code))
        else:
            check_metrics(workload, result, spec["end_to_end"], "end-to-end")

        traced = []
        for _ in range(2):
            code, out = run_workload(workload, 7, 1, True, short=True)
            result = last_json(out) if code == 0 else None
            if result is None or result["failed"] != 0:
                problems.append("%s short traced run failed (exit %d)" % (workload, code))
                break
            check_metrics(workload, result, spec["per_layer"], "per-layer")
            traced.append(result["metrics"])
        if len(traced) == 2:
            for name, entry in traced[0].items():
                if entry["unit"] in TIMED_UNITS or name in TIMED_NAMES:
                    continue
                if traced[1][name]["value"] != entry["value"]:
                    problems.append("%s: count %s differs between traced runs (%r vs %r)" % (
                        workload, name, entry["value"], traced[1][name]["value"]))

        code, out = run_workload(workload, 7, 1, False, short=True,
                                 expect_digest="0" * 16)
        result = last_json(out) if code == 0 else None
        if result is None or result["failed"] == 0 or result["correct"]:
            problems.append("%s: a wrong digest was not reported as failed" % workload)

        code, out = run_workload(workload, digests["default_seed"], 1, False,
                                 expect_digest=digests[workload])
        result = last_json(out) if code == 0 else None
        if result is None or result["failed"] != 0:
            problems.append("%s: default seed does not reproduce the committed digest"
                            % workload)
        print("selftest %s: done" % workload)

    for problem in problems:
        print("selftest: " + problem, file=sys.stderr)
    print("selftest %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    digests = committed_digests()
    expect = digests[args.workload] if args.seed == digests["default_seed"] else None
    code, out = run_workload(args.workload, args.seed, args.seconds, args.trace == 1,
                             expect_digest=expect)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0 or last_json(out) is None:
        print("perfbench: workload %s exited %d" % (args.workload, code), file=sys.stderr)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
