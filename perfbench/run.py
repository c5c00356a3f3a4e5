#!/usr/bin/env python3
"""Builds and runs the ModelHub end-to-end benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload ingest|serve|maintain --seed N \
      --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the library from ../src)
in Release mode under $CARGO_TARGET_DIR (default .bench_build), runs one
workload in a fresh scratch directory under .bench_tmp/, removes that
directory whatever happens, and passes the benchmark's output through:
diagnostics on stderr, one JSON result as the last line of stdout. A traced
run also writes its spans to .bench_out/trace-<workload>-seed<N>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Leaves room under the 180 s a run may take for the build check and cleanup.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        subprocess.run(step, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "serve", "maintain"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no ModelHub sources at %s/src; run from a checkout "
              "of the repository" % ROOT, file=sys.stderr)
        return 2
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2

    scratch_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=scratch_root)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    try:
        # subprocess.run kills and reaps the benchmark on timeout.
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # Another run still uses it.
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
