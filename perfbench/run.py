#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload stacks-wire --seed 1 --seconds 10 --trace 0

The benchmark's own CMake project (perfbench/CMakeLists.txt) compiles the
karousos library, the shipped `karousos` CLI and the driver into the build
directory named by $CARGO_TARGET_DIR (default .bench_build). Build output goes
to standard error; the driver's last line of standard output is the JSON
result. Run outputs (shard containers, the forged copy, audit logs, spans,
the server socket) go to .bench_run/<workload>/, emptied before each run.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("stacks-wire", "wiki-wire", "auction-wire")


def build(root, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench", "karousos"],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("src/server/server.h", "tools/karousos_cli.cc"):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found; run from a full checkout", file=sys.stderr)
            return 2
    os.chdir(root)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    # Relative, so the unix socket path stays short whatever the checkout path.
    work_dir = os.path.join(".bench_run", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    sys.stdout.flush()
    return subprocess.call([
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--cli", os.path.join(build_dir, "karousos"), "--work-dir", work_dir,
    ])


if __name__ == "__main__":
    sys.exit(main())
