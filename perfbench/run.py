#!/usr/bin/env python3
"""Build the benchmark and the plan-serve daemon from source, then run one measurement.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus-sweep|exact-search|serve-stream \
        --seed N --seconds S --trace 0|1

Cargo output goes to stderr, so the last stdout line is the result object
printed by the benchmark binary. Builds land in $CARGO_TARGET_DIR
(default .bench_build); spans and daemon journals in its perfbench/
subdirectory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(root_manifest) or not os.path.isdir(os.path.join(ROOT, "crates")):
        print(
            "perfbench: the repository sources (Cargo.toml, crates/) are missing beside perfbench/",
            file=sys.stderr,
        )
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", root_manifest, "-p", "noctest-bench", "--bin", "plan-serve",
        ],
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
    ]
    for command in builds:
        status = subprocess.run(command, env=env, stdout=sys.stderr).returncode
        if status != 0:
            print(f"perfbench: build failed: {' '.join(command)}", file=sys.stderr)
            return status
    bench = [
        os.path.join(target, "release", "noctest-perfbench"),
        *sys.argv[1:],
        "--serve-bin", os.path.join(target, "release", "plan-serve"),
        "--out-dir", os.path.join(target, "perfbench"),
    ]
    return subprocess.run(bench, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
