#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The binary is built with cargo into $CARGO_TARGET_DIR (default
perfbench/target). Its standard output is passed through; the last line
is the JSON result. The exit code is non-zero, with no result printed,
when the build fails, the binary fails, or its result line is malformed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig89_cold", "fig89_warm", "fault_campaign")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args()


def source_digest():
    """SHA-256 over the sources the benchmark builds, for provenance when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
    for top in roots:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files.extend(os.path.join(d, n) for n in sorted(names))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
        git = out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        git = "none"
    return f"{git}+src:{source_digest()}"


def main():
    args = parse_args()
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    binary = os.path.join(target, "release", "harvest-perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--work", os.path.join(target, "perfbench-work", f"{args.workload}-{os.getpid()}"),
        "--commit", commit_id(),
    ]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            target, "perfbench-traces", f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: benchmark exited {run.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
