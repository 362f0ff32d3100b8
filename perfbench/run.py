#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload corpus_triage --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all        # every workload of BENCHMARK.json

The first run configures and builds the library and the benchmark program
from source into .bench_build/ (or $CARGO_TARGET_DIR when set); later runs
rebuild only what changed. All other arguments go to that program, whose last
line of standard output is the JSON result. See perfbench/README.md.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the benchmark program; returns its path or None."""
    generator = ["-G", "Ninja"] if _has("ninja") else []
    quiet = {"stdout": subprocess.PIPE, "stderr": subprocess.STDOUT}
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        res = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator, **quiet)
        if res.returncode != 0:
            sys.stderr.write(res.stdout.decode(errors="replace"))
            return None
    jobs = str(len(os.sched_getaffinity(0)))
    res = subprocess.run(["cmake", "--build", build_dir, "-j", jobs], **quiet)
    if res.returncode != 0:
        sys.stderr.write(res.stdout.decode(errors="replace"))
        return None
    return os.path.join(build_dir, "perfbench")


def _has(tool):
    return any(os.access(os.path.join(p, tool), os.X_OK)
               for p in os.environ.get("PATH", "").split(os.pathsep))


def main(argv):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    program = build(build_dir)
    if program is None:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    work = os.path.relpath(os.path.join(build_dir, "work"))
    if "--all" not in argv:
        return subprocess.run([program, "--work", work] + argv).returncode

    # One command for the whole benchmark: each workload in turn, untraced
    # unless --trace says otherwise; fails if any workload fails.
    argv = [a for a in argv if a != "--all"]
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    defaults = {"--seed": "1", "--seconds": str(spec["run_seconds"]),
                "--trace": "0"}
    for flag, value in defaults.items():
        if flag not in argv:
            argv += [flag, value]
    rc = 0
    for workload in spec["workloads"]:
        print("== " + workload["name"], flush=True)
        rc = subprocess.run([program, "--work", work, "--workload",
                             workload["name"]] + argv).returncode or rc
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
