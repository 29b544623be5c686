#!/usr/bin/env python3
"""Benchmark entry point: builds sketch_serverd and the driver, runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest_stream --seed 1 --seconds 12 --trace 0

Builds the repository's stock `sketch_serverd` plus `perfbench_driver` in
Release mode (into $CARGO_TARGET_DIR, default `.bench_build`), then runs the
driver, whose last stdout line is the JSON result. Exits non-zero when the
build fails, the sources are missing, or any answer was wrong.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the two targets; returns the binaries."""
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", ROOT, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release",
             "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "inject.cmake")],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "sketch_serverd",
         "perfbench_driver", "-j", jobs],
        check=True, stdout=sys.stderr)
    return (os.path.join(cmake_dir, "src", "server", "sketch_serverd"),
            os.path.join(cmake_dir, "perfbench", "perfbench_driver"))


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="12")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip one reference digest (self-test)")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "server")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"{needed} not found: run from a full checkout of the repository")
            return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_dir)
    try:
        daemon, driver = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    command = [driver, "--daemon", daemon, "--workload", args.workload,
               "--seed", args.seed, "--seconds", args.seconds,
               "--trace", args.trace, "--out-dir", out_dir,
               "--commit", commit()]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    # Own process group, so a timeout also stops the daemon it spawned.
    process = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        log(f"driver exceeded {RUN_TIMEOUT_S} s")
        return 3


if __name__ == "__main__":
    sys.exit(main())
