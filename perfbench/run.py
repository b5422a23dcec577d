#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper-k32|reddit-k32|serve-k32 \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the `perfbench` crate and
the `aurora_serve` daemon in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the workload with the engine pool
pinned to two threads. Sockets, access logs and span files go to
`.bench_out`. The last line of stdout is the run's JSON result; build
output goes to stderr. The exit code is non-zero when the build or the
run fails, and no result is printed then.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-k32", "reddit-k32", "serve-k32")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target, AURORA_THREADS="2")
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
        "-p", "perfbench", "-p", "aurora-serve", "--bins",
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print(f"build failed with exit code {built.returncode}", file=sys.stderr)
        return 1

    bindir = os.path.join(target, "release")
    cmd = [
        os.path.join(bindir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-bin", os.path.join(bindir, "aurora_serve"),
        "--out-dir", ".bench_out",
    ]
    # a session of its own, so a timeout or a signal to this script
    # stops the daemons too
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
