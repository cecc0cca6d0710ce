#!/usr/bin/env python3
"""The repository benchmark's entry point (BENCHMARK.json "command").

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the pnlab libraries, pncd and the
benchmark harness from source with CMake into $CARGO_TARGET_DIR (default
.bench_build), stamps the run with the commit and a digest of the
sources, runs perfbench_harness, and passes its output through.  The
last stdout line is the result object; its metric names are checked
against BENCHMARK.json.  Exits non-zero, without a result, when the
pnlab sources are absent or the build fails, and non-zero on any wrong
output.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the harness and pncd; returns the
    harness and pncd paths."""
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "perfbench_harness", "pncd", "perfbench_treegen_test"],
                   check=True, stdout=sys.stderr)
    return (os.path.join(build_dir, "perfbench_harness"),
            os.path.join(build_dir, "pnlab_tools", "pncd"))


def commit_hash():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the program's sources, so a checkout without git
    history still identifies what was measured."""
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2
    for need in ("src/CMakeLists.txt", "tools/pncd.cpp"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log("no pnlab sources (missing %s); nothing to measure" % need)
            return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_dir), "perfbench")
    try:
        harness, pncd = build(build_dir)
    except subprocess.CalledProcessError as e:
        log("build failed: %s" % e)
        return 2

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pncd", pncd, "--commit", commit_hash(),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness timed out after %d s" % HARNESS_TIMEOUT_S)
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        log("harness failed with exit code %d" % proc.returncode)
        return proc.returncode or 2

    result = json.loads(lines[-1])
    key = "per_layer" if args.trace else "end_to_end"
    want = {m["name"] for m in spec[key]}
    got = set(result["metrics"])
    if want != got:
        log("metric names differ from BENCHMARK.json %s: missing %s, extra %s"
            % (key, sorted(want - got), sorted(got - want)))
        return 4
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
