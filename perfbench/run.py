#!/usr/bin/env python3
"""Build and run the amsyn flow benchmark.

    python3 perfbench/run.py --workload amp_flow --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds
perfbench/ (Release, only the libraries the benchmark links) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild incrementally.  Build output goes to stderr, so the last stdout line
is always the benchmark's result object.  Exits non-zero, printing no
result, when the build or the benchmark fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 170


def build(target):
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target", target],
                   check=True, stdout=sys.stderr)
    return build_dir / target


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["amp_flow", "robust_corners", "gen_batch"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own arithmetic tests")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    try:
        exe = build("benchstats_test" if args.self_test else "flow_bench")
        cmd = [str(exe)] if args.self_test else [
            str(exe), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    if out.returncode != 0:
        print(out.stdout, end="", file=sys.stderr)
        print(f"run.py: {cmd[0]} exited with {out.returncode}", file=sys.stderr)
        return 1
    print(out.stdout, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
