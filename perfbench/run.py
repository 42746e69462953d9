#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The first form builds the measuring program (perfbench/CMakeLists.txt, into
$CARGO_TARGET_DIR or .bench_build) if needed, runs one workload, checks that
the result names exactly the metrics BENCHMARK.json lists for the mode
(end_to_end untraced, per_layer traced) with the listed units, and prints it
as the last line of standard output. A traced run also leaves its spans in
<build dir>/traces/. --self-check runs every workload briefly, traced and
untraced, and checks that every metric is present and that no request failed.

Exits non-zero without printing a result if the sources are missing, the
build fails, or the run fails or exceeds its time limit.
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
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds perfbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "silkroute", "publisher.h")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        cache = os.path.join(out, "CMakeCache.txt")
        if os.path.isfile(cache):
            with open(cache) as f:
                if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                    os.remove(cache)  # configured for another checkout
        if not os.path.isfile(cache):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", out, "-j", jobs])
        for step in steps:
            proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-20000:])
                fail("build failed: " + " ".join(step))
    binary = os.path.join(out, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no perfbench binary")
    return binary


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(binary, spec, workload, seed, seconds, trace):
    """Runs one workload; returns (result dict, raw stdout) or fails."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: unexpected result keys {sorted(result)}")
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in want if n in got and want[n] != got[n])
        fail(f"{workload}: metrics differ from BENCHMARK.json "
             f"(missing {missing}, extra {extra}, wrong unit {wrong})")
    return result, proc.stdout


def self_check(binary, spec):
    ok = True
    for workload in spec["workloads"]:
        for trace in (False, True):
            result, _ = run_once(binary, spec, workload["name"], 1, 2, trace)
            error_rate = result["failed"] / max(1, result["attempted"])
            good = result["correct"] and error_rate == 0
            ok = ok and good
            print(f"{workload['name']:24s} trace={int(trace)} "
                  f"attempted={result['attempted']} error_rate={error_rate} "
                  f"metrics={len(result['metrics'])} "
                  f"{'ok' if good else 'FAILED'}")
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured time (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    binary = build()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.self_check:
        return self_check(binary, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    _, stdout = run_once(binary, spec, args.workload, args.seed,
                         args.seconds, bool(args.trace))
    sys.stdout.write(stdout if stdout.endswith("\n") else stdout + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
