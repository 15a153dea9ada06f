#!/usr/bin/env python3
"""Builds and runs the end-to-end SQL benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload eq_scan_16m --seed 1 --seconds 10 --trace 0

The first run configures and builds the engine and the benchmark driver
(Release) under .bench_build/; later runs only re-check the build. The
driver's standard output is passed through: its last line is the result
JSON. Build output and diagnostics go to standard error. Everything the
benchmark writes (build tree, JIT scratch files, --trace 1 Chrome traces)
stays under .bench_build/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build():
    """Configures (once) and builds the driver; returns an error or None."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not (
        os.path.isdir(os.path.join(ROOT, "src", "fts"))
    ):
        return "engine sources not found at " + ROOT
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            return "build step %s failed: %s" % (step[:2], error)
        if done.returncode != 0:
            return "build step %s exited with %d" % (step[:2], done.returncode)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    error = build()
    if error:
        return fail(error)

    # The engine reads FTS_* knobs from the environment (threads, fault
    # injection, cost profile cache, ...); the benchmark runs with none.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FTS_")}
    env["TMPDIR"] = os.path.join(WORK, "tmp")  # JIT compiler scratch.
    os.makedirs(env["TMPDIR"], exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(WORK, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except OSError as error:
        return fail("cannot run %s: %s" % (BINARY, error))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
