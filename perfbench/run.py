#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload forall-analytics --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; each run is appended to
runs.jsonl there with its provenance, and a traced run writes its spans
to trace-<workload>-<seed>.jsonl. The last line of stdout is the JSON
result. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures and builds (both no-ops when up to date); logs go to
    stderr. False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out_dir, "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library sources, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(out_dir, "perfbench_selftest")]).returncode
    if not args.workload:
        parser.error("--workload is required")

    provenance = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "git_sha": git_sha(),
                  "source_digest": source_digest(),
                  "hardware_threads": os.cpu_count()}
    print("perfbench-run " + json.dumps(provenance), flush=True)

    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(proc.stdout)
        print("perfbench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
        return 1

    # The binary reports the thread and connection counts it used.
    prefix = "perfbench-provenance "
    for line in lines:
        if line.startswith(prefix):
            provenance.update(json.loads(line[len(prefix):]))
    with open(os.path.join(out_dir, "runs.jsonl"), "a") as log:
        log.write(json.dumps({"provenance": provenance, "result": result}) + "\n")
    for line in lines[:-1]:
        print(line)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
