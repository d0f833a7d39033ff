#!/usr/bin/env python3
"""Build and run the repository benchmark.

usage: python3 farmbench/run.py --workload mine|serve|mixed --seed N
                                --seconds S --trace 0|1

Run from the repository root. Configures and builds farmbench (Release)
under .bench_build/, runs one workload, forwards its report lines, and
prints as the last line one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. A per-layer metric of a layer the workload
does not exercise is reported as 0 and named on a NOT-EXERCISED line.
Exit codes: 0 ok, 1 an output check failed (result printed, correct=false),
2 build or usage error, 3 missing metric or timeout (no result printed).
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "farmbench")
DEADLINE_S = 170.0  # the whole invocation, build excluded


def die(code, msg):
    print("farmbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            die(2, "cannot run %s: %s" % (cmd[0], e))
        if done.returncode != 0:
            die(2, "build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "farmbench")


def src_digest():
    h = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        top = os.path.join(ROOT, base)
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(2, "cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(2, "unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    started = time.monotonic()
    spans_dir = os.path.join(OUT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", os.path.join(OUT, "work"),
           "--spans", os.path.join(spans_dir, "%s-seed%d.json" %
                                   (args.workload, args.seed)),
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    # A SIGTERM to this script must not leave the workload running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        die(3, "workload timed out after %.0f s" % DEADLINE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stdout.write(out)
    if proc.returncode not in (0, 1):
        die(2, "farmbench exited with code %d" % proc.returncode)

    measured, counts = {}, None
    for line in out.splitlines():
        kind, _, body = line.partition(" ")
        if kind == "METRIC":
            m = json.loads(body)
            measured[m["name"]] = m
        elif kind == "COUNTS":
            counts = json.loads(body)
    if counts is None:
        die(3, "farmbench printed no COUNTS line")

    metrics, idle = {}, []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if args.trace == 0:
                die(3, "end-to-end metric %s not measured" % m["name"])
            idle.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            die(3, "metric %s: unit %s, BENCHMARK.json says %s" %
                (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if idle:
        print("NOT-EXERCISED " + " ".join(idle))
    print("ELAPSED_S %.3f" % (time.monotonic() - started))
    print(json.dumps({"correct": counts["correct"],
                      "attempted": max(1, counts["attempted"]),
                      "failed": counts["failed"],
                      "metrics": metrics}))
    sys.exit(0 if counts["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
