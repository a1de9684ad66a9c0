#!/usr/bin/env python3
"""Build and run the shhpass end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in BENCHMARK.json. The script configures and builds
perfbench/ (which builds the library from ../src) into .bench_build/,
then runs the benchmark program. Build output goes to stderr; its last
stdout line is the result object. Traced runs write a Chrome trace to
.bench_build/traces/.

Exit codes: 0 when the program printed its result line (whose "correct"
and "failed" report any correctness violation), the program's nonzero code
when it could not run, or 2 for bad arguments, a refused environment or a
failed build.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
TRACE_DIR = os.path.join(BUILD_ROOT, "traces")
WORKLOADS = ("large-800", "batch-mixed", "sweep-netlist")
# Library switches that silently change what is measured.
REFUSED_ENV = ("SHHPASS_TRACE", "SHHPASS_METRICS", "SHHPASS_STAGE_GRAPH",
               "SHHPASS_GEMM_THREADS")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the benchmark program; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"library sources not found under {ROOT}")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_build(["cmake", "-S", HERE, "-B", BUILD_DIR,
                       "-DCMAKE_BUILD_TYPE=Release", *generator])
        run_build(["cmake", "--build", BUILD_DIR, "-j", jobs,
                   "--target", "perfbench"])
    return os.path.join(BUILD_DIR, "perfbench")


def run_build(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            check=False)
    if result.returncode != 0:
        fail("build failed: " + " ".join(cmd))


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_hash():
    """sha256 over the library sources (path and bytes, sorted by path),
    so runs from a checkout without git history still name their code."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = parser.parse_known_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    for var in REFUSED_ENV:
        if var in os.environ:
            fail(f"refusing to run with {var} set")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", TRACE_DIR, "--commit", git_commit(),
           "--source-hash", source_hash(), *extra]
    sys.stdout.flush()
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
