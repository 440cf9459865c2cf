#!/usr/bin/env python3
"""The end-to-end benchmark of the served deciders: one command.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the shipped
xpathsat_server and the load generator from source (perfbench/CMakeLists.txt,
Release, into .bench_build/), then runs one workload: the load generator
starts the server on a unix socket, drives it, checks every verdict against
the facade, and prints its report. The last stdout line is one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) that BENCHMARK.json names. Every metric of the run, with its
sample count, and a host descriptor go to
.bench_results/<workload>/seed<N>-trace<T>.json (--results moves it);
perfbench/compare.py compares two such directories. A verdict that
disagrees with the facade fails the run with a non-zero exit and no result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("hot_repeat", "cold_decide", "zipf_checkpoint")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LOADGEN = os.path.join(BUILD, "perfbench_loadgen")
SERVER = os.path.join(BUILD, "xpathsat", "tools", "xpathsat_server")
# A run measures --seconds plus set-up, warm-up and the verdict check; the
# timeout only catches a hung run.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds incrementally; build output to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench_loadgen"],
                   stdout=sys.stderr, check=True)


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--results", default=os.path.join(ROOT, ".bench_results"))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no xpathsat sources next to perfbench/: nothing to measure")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload,
                                                         os.getpid()))
    out_dir = os.path.join(args.results, args.workload)
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "seed%d-trace%d" % (args.seed, args.trace))
    cmd = [LOADGEN, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", SERVER, "--workdir", work,
           "--detail", stem + ".json"]
    if args.trace:
        cmd += ["--spans", stem + ".spans.jsonl"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %ds" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("load generator exited with %d" % proc.returncode,
             proc.returncode)

    with open(stem + ".json") as f:
        detail = json.load(f)
    detail["host"].update({"git_revision": git_revision(),
                           "source_sha256": source_digest(),
                           "seed": args.seed})
    with open(stem + ".json", "w") as f:
        json.dump(detail, f, indent=1, sort_keys=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
