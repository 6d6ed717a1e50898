#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The program's libraries and the perfbench
binary are built (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; build output goes to
stderr, so the last line on stdout is the binary's JSON result. Caches and
artifacts of a run live in .perfbench/work (emptied before each run);
traces are kept in .perfbench/traces.
"""
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("error: the program's sources (src/) are not beside perfbench/",
              file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"error: build failed: {error}", file=sys.stderr)
        return 1
    work_dir = os.path.join(ROOT, ".perfbench", "work")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    # time.monotonic_ns() reads CLOCK_MONOTONIC, the clock behind the
    # binary's std::chrono::steady_clock, so set-up is timed from this spawn.
    spawned = str(time.monotonic_ns())
    result = subprocess.run(
        [binary, *sys.argv[1:], "--work-dir", work_dir,
         "--spawned-at-ns", spawned], cwd=ROOT)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
