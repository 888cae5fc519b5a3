#!/usr/bin/env python3
"""Build pmabench from this checkout and run one workload, or all of them.

    python3 pmabench/run.py --workload ycsb-e --seed 1 --seconds 30 --trace 0

Run from the root of the repository. The build goes to
$CARGO_TARGET_DIR/pmabench (default .bench_build/pmabench); its output is
sent to stderr so that the last line on stdout is the benchmark's JSON
result (with --workload all, the result of the last workload). The exit
code is the benchmark's, the first non-zero one of all, or 1 if the build
fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ycsb-d", "ycsb-e", "ingest-scan")
RUN_TIMEOUT_S = 175


def build(build_dir):
    # Configure on every run: it is cheap when nothing changed, it
    # refreshes the git sha the binary reports, and it fails instead of
    # building another checkout's sources if build_dir was configured
    # from a different source tree.
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "pmabench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "pmabench"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        rc = run(build_dir, workload, args)
        status = status or rc
    return status


def run(build_dir, workload, args):
    cmd = [os.path.join(build_dir, "pmabench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace_file",
                os.path.join(traces, f"{workload}-seed{args.seed}.json")]
    with subprocess.Popen(cmd) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"run.py: pmabench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
