#!/usr/bin/env python3
"""Build the bpntt benchmark from source and run one workload.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library and the benchmark program are built (Release) into
.bench_build/ under the checkout, or into $CARGO_TARGET_DIR when that is
set; build output goes to standard error.  The program's standard output
is passed through: a metric table, then one JSON result line.  Traced runs
leave their Chrome trace and host-clock spans in <build dir>/out/.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ntt-batch-sram", "he-mul-sram", "service-open-cpu")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no CMakeLists.txt at %s; run from a full checkout" % ROOT)
    cfg = os.path.join(build_dir, "perfbench")
    # Keep the compiler's temporary files inside the build directory.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(cfg, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cfg, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", cfg, "-j", "4"], check=True, stdout=sys.stderr, env=env)
    return os.path.join(cfg, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", os.path.join(build_dir, "out")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
