#!/usr/bin/env python3
"""Builds and runs the wall-clock metadata benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload spotify --seed 1 --seconds 10 --trace 0

The first call configures and compiles the benchmark (the metadata library
is compiled from src/) into .bench_build/perfbench; later calls rebuild only
what changed. The benchmark binary prints human-readable detail, a
provenance line and, as its last line, the result object
{"correct", "attempted", "failed", "metrics"}. This wrapper checks that the
result names exactly the metrics BENCHMARK.json declares for the mode
(end_to_end with --trace 0, per_layer with --trace 1) and exits non-zero
otherwise, or when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind: the next call starts over.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-discrepancy", action="store_true",
                    help="drop one file from the oracle's model: the run must fail")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no src/ tree next to the benchmark: nothing to measure")
        return 2
    if not build():
        log("build failed")
        return 2

    os.makedirs(os.path.join(ROOT, ".bench_build", "traces"), exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--source-digest", source_digest(),
           "--trace-dir", os.path.join(ROOT, ".bench_build", "traces")]
    if args.plant_discrepancy:
        cmd.append("--plant-discrepancy")
    env = dict(os.environ)
    env.pop("HOPS_KV_ENGINE", None)  # the workload names its engine
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited with {proc.returncode}")
        return proc.returncode if proc.returncode > 0 else 4
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        log("last line is not a result object")
        return 5
    want = declared_metrics(args.trace == 1)
    got = set(result.get("metrics", {}))
    if got != want:
        print("\n".join(lines[:-1]))
        log(f"metric names differ from BENCHMARK.json: missing {sorted(want - got)}, "
            f"extra {sorted(got - want)}")
        return 6
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
