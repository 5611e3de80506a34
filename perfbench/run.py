#!/usr/bin/env python3
"""Build and run the stgcc benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload exhaustive|corpus \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the library, stgd and the stgbench program from the sources of this
checkout into $CARGO_TARGET_DIR (default .bench_build), then runs one
benchmark.  Everything the build prints goes to stderr, so the last line of
stdout is the JSON result of stgbench.  --self-test re-derives the committed
oracle from the explicit state-graph checkers.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("exhaustive", "corpus")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no stgcc sources next to perfbench/ (expected src/CMakeLists.txt)")
    if not os.path.isdir(os.path.join(ROOT, "models")):
        fail("no models/ directory next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                        build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target",
                    "stgbench", "stgd"], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    state_dir = os.path.relpath(os.path.join(ROOT, target), ROOT)
    build_dir = os.path.join(ROOT, state_dir, "perfbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)

    if args.self_test:
        rc = subprocess.run(["ctest", "--test-dir", build_dir,
                             "--output-on-failure"], cwd=ROOT).returncode
        sys.exit(rc)

    cmd = [os.path.join(build_dir, "stgbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", ".", "--state-dir", state_dir,
           "--stgd", os.path.join(build_dir, "stgd")]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # stgbench and any stgd it started share one process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
