#!/usr/bin/env python3
"""The repository benchmark's command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the root of a checkout. Builds perfbench/ (the tfsn library from
the checkout's sources plus the benchmark driver) in $CARGO_TARGET_DIR,
default .bench_build, then runs one workload of BENCHMARK.json. Everything
the driver prints is passed through; the last line is the result object
with exactly the metrics BENCHMARK.json declares: the end-to-end ones
with --trace 0, the per-layer ones with --trace 1 (a layer the workload
does not exercise reads 0). Traced runs also leave a Chrome trace-event
file and a self-time table under <build dir>/work/.

Exits non-zero, printing no result, when the build fails, a returned team
differs from the single-thread reference, the accounting identity
breaks, or the output does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 175  # the whole command, build included, must end by 180 s


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if cfg.returncode != 0:
            sys.stderr.write(cfg.stderr)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    b = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if b.returncode != 0:
        sys.stderr.write(b.stdout[-4000:])
        fail("build failed")
    return os.path.join(build_dir, "tfsn_perfbench")


def commit():
    """HEAD of the checkout when it is a git repository of its own."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    lines = out.stdout.split()
    if out.returncode == 0 and len(lines) == 2 and \
            os.path.realpath(lines[0]) == os.path.realpath(ROOT):
        return lines[1]
    return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny fixtures, for the benchmark's own tests")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)

    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=" + os.path.join(build_dir, "work"),
           "--commit=" + commit(), "--source-digest=" + source_digest()]
    if args.smoke:
        cmd.append("--smoke")
    remaining = DEADLINE_S - (time.monotonic() - start)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % DEADLINE_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("driver exited with %d" % proc.returncode)

    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    if result["correct"] is not True or result["attempted"] < 1:
        fail("run is not correct")
    got = result["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in declared})
    if unknown:
        fail("metrics not declared in BENCHMARK.json: %s" % unknown)
    metrics = {}
    absent = []
    for m in declared:
        name = m["name"]
        if name not in got:
            if not args.trace:
                fail("end-to-end metric %s missing" % name)
            absent.append(name)
            metrics[name] = {"value": 0, "unit": m["unit"]}
            continue
        value = got[name]["value"]
        if got[name]["unit"] != m["unit"]:
            fail("%s: unit %s, declared %s" % (name, got[name]["unit"],
                                               m["unit"]))
        if not math.isfinite(value) or (not args.trace and value <= 0):
            fail("%s: bad value %r" % (name, value))
        metrics[name] = {"value": value, "unit": m["unit"]}
    for line in lines[:-1]:
        print(line)
    if absent:
        print("n/a        layers %s does not exercise (reported as 0): %s"
              % (args.workload, " ".join(absent)))
    result["metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()
