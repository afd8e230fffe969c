#!/usr/bin/env python3
"""Build and run the benchmark program for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-fig8 --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --smoke      # every workload, tiny inputs, both
                                          # modes; checks names and units

The program (perfbench/*.cpp) is built from the checkout's own sources into
$CARGO_TARGET_DIR/perfbench-<hash of the checkout's path> ($CARGO_TARGET_DIR
defaults to .bench_build). The last line of stdout is the result object;
its metric names and units are checked against BENCHMARK.json before it is
printed. Exits nonzero, printing no result, if
the build, the run or any check fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700  # a first run builds, then runs: within 900 s


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    """This checkout's build directory under $CARGO_TARGET_DIR.

    Keyed on the checkout's path: a CMake cache records the source tree it
    was configured for, so checkouts that share $CARGO_TARGET_DIR must not
    share a build directory, or one would build and measure another's src/.
    """
    key = hashlib.sha1(os.getcwd().encode()).hexdigest()[:12]
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(base), f"perfbench-{key}")


def build(root):
    """Configure once and build the program; returns the binary's path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", out, "-j", jobs])
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        for step in steps:
            # A process group of its own, so a timeout stops make and the
            # compilers too, not just cmake.
            proc = subprocess.Popen(step, stdout=sys.stderr, stderr=sys.stderr,
                                    start_new_session=True)
            try:
                code = proc.wait(timeout=max(1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                fail("build timed out")
            if code != 0:
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "perfbench")


def expected_metrics(spec, trace):
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(result, spec, trace):
    """Problems with one result object, as a list of messages."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = expected_metrics(spec, trace)
    got = result["metrics"]
    for name in sorted(set(want) - set(got)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(got) - set(want)):
        problems.append(f"metric {name} is not in BENCHMARK.json")
    for name in sorted(set(want) & set(got)):
        entry = got[name]
        if entry.get("unit") != want[name]:
            problems.append(f"{name}: unit {entry.get('unit')!r}, "
                            f"BENCHMARK.json says {want[name]!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems


def run_binary(binary, workload, seed, seconds, trace, smoke):
    """Run the program once; returns (stdout lines, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{workload}-{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: run timed out after {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"{workload}: benchmark program exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload}: last line is not a result object")
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly in both modes and "
                             "check names and units against BENCHMARK.json")
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "perfbench/CMakeLists.txt",
                   "src/CMakeLists.txt", "configs"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a full checkout", 3)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    if args.smoke:
        binary = build(root)
        bad = 0
        for workload in workloads:
            for trace in (False, True):
                _, result = run_binary(binary, workload, args.seed, 1, trace,
                                       smoke=True)
                problems = check_result(result, spec, trace)
                if not result["correct"]:
                    problems.append("output check failed")
                status = "OK" if not problems else "; ".join(problems)
                print(f"smoke {workload} trace={int(trace)}: "
                      f"{len(result['metrics'])} metrics, {status}")
                bad += bool(problems)
        if bad:
            fail(f"smoke: {bad} check(s) failed")
        print("smoke: OK")
        return

    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}", 2)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build(root)
    lines, result = run_binary(binary, args.workload, args.seed, seconds,
                               bool(args.trace), smoke=False)
    problems = check_result(result, spec, bool(args.trace))
    sys.stdout.write("\n".join(lines) + "\n")
    if problems:
        fail("result does not match BENCHMARK.json: " + "; ".join(problems))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
