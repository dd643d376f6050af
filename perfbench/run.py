#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the C2LSH index.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the benchmark with CMake into the build directory
($CARGO_TARGET_DIR, default .bench_build); later runs only re-check the
build. Every run first executes the benchmark's self-checks, then the
workload, and forwards the workload's output, whose last line is the JSON
result. Any failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are missing; nothing to benchmark")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"], 300)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs,
               "--target", "perfbench", "perfbench_selftest"], 880)


def expected_metrics(trace):
    """The metric names and units BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    run_quiet([os.path.join(build_dir, "perfbench_selftest")], 60)

    workdir = os.path.join(build_dir, f"run-{os.getpid()}")
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"workload exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the workload's last line is not a JSON result")
    want = expected_metrics(args.trace == 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want is not None and want != got:
        fail("metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"unit differs {sorted(n for n in set(want) & set(got) if want[n] != got[n])}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
