#!/usr/bin/env python3
"""Smoke test of the benchmark itself (not part of the library's ctest).

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at the smoke size (tiny fixtures,
one-second phases), untraced and traced, through perfbench/run.py, and
checks the result line against the declared metrics. Then copies only
BENCHMARK.json and perfbench/ into a scratch directory inside the build
directory and checks that the benchmark fails there without a result.
Takes about a minute after the first build.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, timeout=180)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            p = run(ROOT, w["name"], trace)
            what = "%s trace=%d" % (w["name"], trace)
            if p.returncode != 0:
                failures.append("%s: exit %d\n%s" % (what, p.returncode,
                                                     p.stderr[-2000:]))
                continue
            result = json.loads(p.stdout.strip().split("\n")[-1])
            want = [m["name"] for m in spec["per_layer" if trace
                                             else "end_to_end"]]
            if list(result["metrics"]) != want:
                failures.append("%s: metrics %s" % (what,
                                                    list(result["metrics"])))
            elif not result["correct"] or result["attempted"] < 1:
                failures.append("%s: %s" % (what, result))
            else:
                print("ok   %s (%d attempted)" % (what, result["attempted"]))

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bare = os.path.join(ROOT, build, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    p = run(bare, spec["workloads"][0]["name"], 0, env)
    if p.returncode == 0 or '"metrics"' in p.stdout:
        failures.append("bare directory: exit %d, stdout %r"
                        % (p.returncode, p.stdout[-500:]))
    else:
        print("ok   bare directory fails (exit %d)" % p.returncode)
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
