#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload kernels|serve|cluster|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build), with dune's shared cache off, so nothing is
written outside the checkout. Every argument is passed to the benchmark
executable, whose exit code this script returns; its last stdout line is
the JSON result.

`--workload all` runs the three workloads one after another, each in its
own process, prints everything they print, and ends with one JSON line
whose metric names are prefixed with the workload (`serve.run_s`). It
exits nonzero when any workload does.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ("kernels", "serve", "cluster")


def build(root):
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            sys.stderr.write(
                "run.py: %s not found; run from the root of a full checkout\n" % need
            )
            return None
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--display", "quiet", "./perfbench/bench.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return None
    return build_dir


def run_all(exe, args):
    """Runs every workload; returns the exit code."""
    i = args.index("--workload")
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        argv = args[:i + 1] + [w] + args[i + 2:]
        done = subprocess.run([exe] + argv, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        if done.returncode != 0 or result is None:
            code = done.returncode or 1
            combined["correct"] = False
        if result is None:
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][w + "." + name] = m
    print(json.dumps(combined))
    return code


def main():
    build_dir = build(os.getcwd())
    if build_dir is None:
        return 2
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    args = sys.argv[1:] + ["--out", os.path.join(build_dir, "perfbench")]
    sys.stdout.flush()
    if "--workload" in args[:-2] and args[args.index("--workload") + 1] == "all":
        return run_all(exe, args)
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
