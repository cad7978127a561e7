#!/usr/bin/env python3
"""Builds the benchmark and `propdiff-run` from source, then runs one workload.

    python3 perfbench/run.py --workload single-link --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to `$CARGO_TARGET_DIR`
(default `.bench_build`); every other argument is passed to the `perfbench`
binary, whose last stdout line is the result object. See perfbench/README.md.
"""

import os
import subprocess
import sys

# A run measures for --seconds and must end well inside three minutes.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "orchestrator", "--bin", "propdiff-run"],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def main():
    args = sys.argv[1:]
    for needed in ("Cargo.toml", os.path.join("crates", "orchestrator"),
                   os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the repository root of a full checkout")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench"), *args,
           "--propdiff-run", os.path.join(release, "propdiff-run")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
