#!/usr/bin/env python3
"""Repository benchmark entry point (see BENCHMARK.json).

    python3 perfbench/run.py --workload solve|serve|cold_ranges \
        --seed N --seconds S --trace 0|1 [--toy] [--corrupt-expected]

Builds the perfbench binary from this checkout's sources (CMake, Release,
into .bench_build/ or $CARGO_TARGET_DIR; incremental after the first run),
then runs one workload. The binary prints a human-readable report and, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. Build output goes to stderr. Exits nonzero when the
build fails, a check fails or the run overruns its time limit.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the perfbench target; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown(no-git-checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                             "HEAD"], capture_output=True, text=True, env=env)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve", "serve", "cold_ranges"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes (the self-test)")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="corrupt one expected answer (the self-test)")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(ROOT, ".bench_out"),
               "--repo-root", ROOT, "--git-sha", git_sha()]
    if args.toy:
        command.append("--toy")
    if args.corrupt_expected:
        command.append("--corrupt-expected")
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"workload overran {RUN_TIMEOUT_S} s and was stopped")
        return 3


if __name__ == "__main__":
    sys.exit(main())
