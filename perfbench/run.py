#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kv-write --seed 1 --seconds 10 --trace 0

Builds the Go benchmark in perfbench/ from the checkout's sources into the
build directory ($CARGO_TARGET_DIR, else .bench_build), with every Go cache
and config directory inside it, then runs one workload. The benchmark's
output passes through unchanged; its last line is the JSON result. Exits
non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("kv-write", "kv-read", "kv-churn", "sim-suite")
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-sim-ref", os.path.join(bench_dir, "sim_reference.txt"),
    ]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
