#!/usr/bin/env python3
"""Build and run the end-to-end fault-tolerance benchmark.

    python3 e2ebench/run.py --workload saturate|paced|recover \
        --seed N --seconds S --trace 0|1

builds e2ebench (the CMake project in this directory, compiled against the
repository's own sources in ../src) under .bench_build/ at the root of the
checkout, runs one workload and passes its output through. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the exit status is the benchmark's (0 when its correctness
oracle passed). Build output goes to standard error.

    python3 e2ebench/run.py --selfcheck

runs every workload of BENCHMARK.json briefly, untraced and traced, and
checks that the oracle passes, that no operation fails, and that every
metric BENCHMARK.json names is emitted with its unit.

Run it from the root of a checkout. Everything it writes (the build, the
durable state of a run) stays under .bench_build/ there.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2ebench")
# A run measures for --seconds and then some (set-ups, recoveries, the
# traced run's extra configurations); anything longer is a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the benchmark; return the binary or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print("e2ebench: cannot run %s: %s" % (cmd[0], err),
                  file=sys.stderr)
            return None
        if done.returncode != 0:
            print("e2ebench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return None
    exe = os.path.join(BUILD_DIR, "e2ebench")
    return exe if os.path.exists(exe) else None


def run_once(exe, workload, seed, seconds, trace):
    """Run the binary once; return (exit status, standard output)."""
    data = os.path.join(BUILD_ROOT, "e2e-data-%d" % os.getpid())
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--dir", data]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              universal_newlines=True, timeout=RUN_TIMEOUT_S)
        return done.returncode, done.stdout
    except subprocess.TimeoutExpired as err:
        out = err.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124, out
    finally:
        shutil.rmtree(data, ignore_errors=True)


def last_json(out):
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def selfcheck(exe):
    """Short run of every workload, untraced and traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    all_ok = True
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            status, out = run_once(exe, workload["name"], 1, 2, trace)
            result = last_json(out)
            problems = []
            if result is None:
                problems.append("no result line (exit %d)" % status)
            else:
                if status != 0 or not result["correct"]:
                    problems.append("oracle failed (exit %d)" % status)
                if result["failed"] != 0:
                    problems.append("%d operations failed" % result["failed"])
                wanted = {m["name"]: m["unit"] for m in spec[key]}
                got = result["metrics"]
                for name, unit in sorted(wanted.items()):
                    if name not in got:
                        problems.append("missing %s" % name)
                    elif got[name]["unit"] != unit:
                        problems.append("%s in %s, expected %s"
                                        % (name, got[name]["unit"], unit))
                for name in sorted(set(got) - set(wanted)):
                    problems.append("unexpected %s" % name)
            print("selfcheck %-8s trace=%d: %s"
                  % (workload["name"], trace,
                     "ok" if not problems else "; ".join(problems)))
            all_ok = all_ok and not problems
    return 0 if all_ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and not args.workload:
        parser.error("--workload is required")

    exe = build()
    if exe is None:
        return 1
    if args.selfcheck:
        return selfcheck(exe)
    status, out = run_once(exe, args.workload, args.seed, args.seconds,
                           args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if last_json(out) is None and status == 0:
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
