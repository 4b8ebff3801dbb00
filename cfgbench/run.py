#!/usr/bin/env python3
"""Builds the cfgtag benchmark from this checkout and runs one workload.

    python3 cfgbench/run.py --workload route --seed 1 --seconds 20 --trace 0
    python3 cfgbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
library and the harness (Release) under $CARGO_TARGET_DIR, or .bench_build
when it is unset; later calls rebuild only what changed. Build output goes
to stderr, so the last stdout line is the harness's result object.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("route", "tag_stream", "nids_batch", "compile")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "cfgbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("cfgbench: no cfgtag sources next to %s; run from a full "
                 "checkout" % HERE)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] + targets,
                   stdout=sys.stderr, check=True)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        out = build(["cfgbench_test"] if args.selftest else ["cfgbench"])
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("cfgbench: build failed: %s" % e)
    if args.selftest:
        return subprocess.run([os.path.join(out, "cfgbench_test")]).returncode

    start = time.monotonic()
    cmd = [os.path.join(out, "cfgbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace,
           "--data-dir", os.path.join(HERE, "grammars"),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("cfgbench: %s did not finish within %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    sys.stdout.write(proc.stdout.decode())
    if proc.returncode != 0:
        sys.exit("cfgbench: harness exited with %d after %.1f s"
                 % (proc.returncode, time.monotonic() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
