#!/usr/bin/env python3
"""Build the simulator and its benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload replay_hybrid --seed 1 --seconds 10 --trace 0

Workloads: replay_hybrid, replay_storm, serve_route (see BENCHMARK.json).
Build output goes to $CARGO_TARGET_DIR, or .bench_build when it is unset.
The last line of stdout is the JSON result; the exit code is non-zero when
the build fails or an output check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(target_dir, args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    # Build output goes to stderr, so stdout stays the result alone.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cargo_build(target_dir, ["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    cargo_build(target_dir, ["-p", "experiments", "--bin", "route_serve"])
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--route-serve",
        os.path.join(release, "route_serve"),
        "--work-dir",
        os.path.join(target_dir, "perfbench-work"),
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
