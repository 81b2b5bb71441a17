#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig5 --seed 1 --seconds 25 --trace 0

Builds perfbench/bench.exe with dune, runs it with the same arguments and
forwards its output.  The last line of stdout is the JSON result.  The exit
code is the benchmark's: 0 when every output checked out, 1 when an outcome
was wrong, 2 on bad arguments or when the program cannot be built (then no
result line is printed).  See perfbench/WORKLOADS.md.
"""

import glob
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    for cand in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune"))):
        return [cand]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found")


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at the repository root: nothing to build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune() + ["build", "--root", ROOT, "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def main():
    build()
    try:
        done = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode == 0:
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            fail("the benchmark printed no JSON result")
        if not result.get("correct"):
            sys.exit(1)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
