#!/usr/bin/env python3
"""The benchmark's own tests, at reduced size.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that
  - every workload runs end to end in both modes, with correct outputs;
  - every printed metric name and unit matches BENCHMARK.json: the
    end_to_end list without tracing, the per_layer list with it;
  - a fixed seed reproduces its digest, and another seed changes it.
Exits 0 when all hold.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]


def run(workload, seed, trace):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    digest = next(l.split()[2] for l in lines if l.startswith("digest "))
    return done.returncode, json.loads(lines[-1]), digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    errors = []
    digests = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, result, digest = run(w["name"], 1, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{w['name']} trace {trace}"
            if code != 0 or not result["correct"] or result["failed"] != 0:
                errors.append(f"{tag}: exit {code}, result {result}")
            if result["attempted"] < 1:
                errors.append(f"{tag}: nothing attempted")
            if got != expected[trace]:
                errors.append(f"{tag}: metrics {got} != {expected[trace]}")
            digests.setdefault(w["name"], set()).add(digest)
            print(f"ok {tag} digest {digest}", flush=True)
    for name, ds in digests.items():
        if len(ds) != 1:
            errors.append(f"{name}: traced and untraced digests differ: {ds}")
    first = spec["workloads"][0]["name"]
    _, _, again = run(first, 1, 0)
    _, _, other = run(first, 2, 0)
    if {again} != digests[first]:
        errors.append(f"{first}: seed 1 did not reproduce its digest")
    if other in digests[first]:
        errors.append(f"{first}: seed 2 gave seed 1's digest")
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
