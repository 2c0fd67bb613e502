#!/usr/bin/env python3
"""Build and run the closfair end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a closfair checkout. Builds the library, closfair_serve
and the runner (Release) into $CARGO_TARGET_DIR, or .bench_build when unset,
then runs one workload. The last line of stdout is the JSON result; the full
run record lands in <build dir>/results/. Build output goes to stderr.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("no closfair sources next to e2ebench/ (run from a full checkout)")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if subprocess.call(
            ["ninja", "--version"], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) == 0 else []
        if subprocess.call(configure + generator, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    targets = ["closfair_serve", "e2ebench_runner"]
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets,
                       stdout=sys.stderr) != 0:
        fail("build failed")


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    env = dict(os.environ, E2EBENCH_COMMIT=commit(), E2EBENCH_BUILD_TYPE="Release")
    runner = [os.path.join(build_dir, "e2ebench_runner"),
              "--serve", os.path.join(build_dir, "closfair_serve"),
              "--results", results] + sys.argv[1:]
    sys.exit(subprocess.call(runner, env=env))


if __name__ == "__main__":
    main()
