#!/usr/bin/env python3
"""Build the quakeviz benchmark from source, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that depends on the repository's crates by
path; it is built in release mode into $CARGO_TARGET_DIR (default
.bench_build). Every argument is passed to the benchmark binary, whose
last line of standard output is the JSON result. Build output goes to
standard error. The exit code is the binary's, or non-zero when the build
fails or a step overruns its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main():
    os.chdir(ROOT)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # glibc gives every rank thread its own malloc arena; how many a run
    # ends up with varies, and with it peak RSS by about 10% run to run.
    # Two arenas make peak_rss_mb repeatable.
    env.setdefault("MALLOC_ARENA_MAX", "2")
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
    ]
    try:
        # build chatter must not reach stdout, whose last line is the result
        done = subprocess.run(build, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return done.returncode
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "quakeviz-perfbench")
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
