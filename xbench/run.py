#!/usr/bin/env python3
"""Build and run the xscale end-to-end benchmark.

Run from the repository root:

    python3 xbench/run.py --workload paper_tables --seed 1 --seconds 20 --trace 0
    python3 xbench/run.py --selftest

The benchmark is its own CMake package (xbench/CMakeLists.txt) that compiles
the library from src/ into .bench_build/ and links the xbench binary against
it. Build output goes to standard error; the binary's standard output passes
through unchanged, so its last line is the JSON result. Traced runs
(--trace 1) write their spans to .bench_build/spans_<workload>_<seed>.json.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "xbench")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("xbench: library sources (src/) not found next to xbench/")
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in (
        ["cmake", "-S", os.path.join(ROOT, "xbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4"],
    ):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            sys.exit("xbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload",
                    choices=["paper_tables", "flow_churn", "serve_whatif"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="also print the reference outputs as REF lines")
    ap.add_argument("--selftest", action="store_true",
                    help="run the harness self-tests instead of a workload")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None or args.seconds < 1):
        ap.error("--workload, --seed and --seconds (>= 1) are required")

    build()
    if args.selftest:
        cmd = [BINARY, "--selftest"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--refs", os.path.join(ROOT, "xbench", "reference.txt")]
        if args.trace:
            cmd += ["--spans", os.path.join(
                BUILD, "spans_%s_%d.json" % (args.workload, args.seed))]
        if args.record:
            cmd.append("--record")
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("xbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
