#!/usr/bin/env python3
"""Machine-readable perf trajectory for the Meteor Shower repo.

Runs the pinned bench set against a release build and appends one snapshot
entry per invocation to BENCH_engine.json / BENCH_micro.json at the repo
root, so every PR's perf delta is recorded next to the code that caused it.

Pinned benches:
  engine   engine_throughput (chain + diamond at max_batch 1 and 64,
           median-of-N inside the binary)
  micro    micro_benchmarks queue/serialize cases (google-benchmark JSON),
           fig12 throughput + fig13 latency sweeps (--quick), and the
           delta-checkpoint ablation (full vs delta vs delta+adaptive)

Trajectory file schema (schema "ms-bench-trajectory/1"):
  {
    "schema": "ms-bench-trajectory/1",
    "bench": "engine" | "micro",
    "entries": [
      {
        "label": "...",          # e.g. "pr6-after-spsc-ring"
        "date": "YYYY-MM-DD",
        "machine": {"host", "os", "cpu", "ncpu"},
        "results": [
          {"name", "iters", "ns_per_op", "tuples_per_sec"}, ...
        ]
      }, ...
    ]
  }

Commands:
  run    --build-dir BUILD [--label L] [--repo-root DIR] [--reps N]
         [--skip-figs]
         Regenerate both trajectory files (appends an entry each; an
         existing entry with the same label is replaced).
  check  --baseline FILE --candidate FILE [--tolerance 0.1]
         Compare two result sets and exit non-zero (loudly) if any shared
         case regressed by more than the tolerance: rate-like metrics
         (tuples_per_sec > 0) must not drop, time-like metrics (ns_per_op)
         must not rise. A raw JSON array (the --json output of a bench
         binary) is used as-is. A trajectory file as the candidate
         contributes its last entry; as the baseline, its newest entry from
         the candidate's machine (the same machine.cpu and machine.ncpu; a
         raw candidate ran on this host). A baseline with no entry from that
         machine fails the check: a rate from other hardware gates nothing.
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys

SCHEMA = "ms-bench-trajectory/1"
# BM_Crc32c / BM_CheckpointFrameWrite / BM_CheckpointRawWrite track the
# durable tier's checksum overhead: the frame-vs-raw delta is the integrity
# tax, and a CRC regression (e.g. losing the SSE4.2 path) shows up directly.
MICRO_FILTER = (
    "BM_EventQueueScheduleRun|BM_SerializeDoubles|BM_Crc32c"
    "|BM_CheckpointFrameWrite|BM_CheckpointRawWrite"
)


def fail(msg):
    print(f"bench_trajectory: {msg}", file=sys.stderr)
    sys.exit(1)


def machine_info():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "host": platform.node(),
        "os": f"{platform.system()} {platform.release()}",
        "cpu": cpu,
        "ncpu": os.cpu_count() or 0,
    }


def run_binary(cmd, cwd=None):
    print("+ " + " ".join(cmd), flush=True)
    proc = subprocess.run(cmd, cwd=cwd)
    if proc.returncode != 0:
        fail(f"{cmd[0]} exited with {proc.returncode}")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")


def entries_of(path_or_doc):
    """A trajectory file's entries, or a raw bench JSON array as one entry
    with no machine."""
    doc = load_json(path_or_doc) if isinstance(path_or_doc, str) else path_or_doc
    if isinstance(doc, list):
        return [{"results": doc}]
    if isinstance(doc, dict) and doc.get("entries"):
        return doc["entries"]
    fail("unrecognized results format (want a JSON array or a trajectory file)")


def results_of(path_or_doc):
    """Normalize a trajectory file (its last entry) or raw bench JSON array to
    a result list."""
    return entries_of(path_or_doc)[-1].get("results", [])


def same_machine(a, b):
    return (a.get("cpu"), a.get("ncpu")) == (b.get("cpu"), b.get("ncpu"))


def collect_engine(build_dir, reps, tmp_dir):
    out = os.path.join(tmp_dir, "engine_throughput.json")
    run_binary([
        os.path.join(build_dir, "bench", "engine_throughput"),
        f"--reps={reps}",
        f"--json={out}",
    ])
    return results_of(out)


def collect_micro(build_dir, tmp_dir, skip_figs):
    results = []

    gb_out = os.path.join(tmp_dir, "micro_benchmarks.json")
    run_binary([
        os.path.join(build_dir, "bench", "micro_benchmarks"),
        f"--benchmark_filter={MICRO_FILTER}",
        f"--benchmark_out={gb_out}",
        "--benchmark_out_format=json",
    ])
    gb = load_json(gb_out)
    unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    for b in gb.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        scale = unit_ns.get(b.get("time_unit", "ns"), 1.0)
        ns = float(b.get("real_time", 0.0)) * scale
        results.append({
            "name": b["name"],
            "iters": int(b.get("iterations", 0)),
            "ns_per_op": ns,
            "tuples_per_sec": 1e9 / ns if ns > 0 else 0.0,
        })

    if not skip_figs:
        for fig in ("fig12_throughput", "fig13_latency",
                    "ablation_delta_checkpoint"):
            out = os.path.join(tmp_dir, f"{fig}.json")
            run_binary([
                os.path.join(build_dir, "bench", fig),
                "--quick",
                f"--json={out}",
            ])
            results.extend(results_of(out))
    return results


def append_entry(path, bench, label, results):
    doc = {"schema": SCHEMA, "bench": bench, "entries": []}
    if os.path.exists(path):
        doc = load_json(path)
        if doc.get("schema") != SCHEMA:
            fail(f"{path}: unknown schema {doc.get('schema')!r}")
    doc["entries"] = [e for e in doc["entries"] if e.get("label") != label]
    doc["entries"].append({
        "label": label,
        "date": datetime.date.today().isoformat(),
        "machine": machine_info(),
        "results": results,
    })
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {path} ({len(results)} results, label={label!r})")


def cmd_run(args):
    tmp_dir = os.path.join(args.build_dir, "bench_trajectory_tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    engine = collect_engine(args.build_dir, args.reps, tmp_dir)
    micro = collect_micro(args.build_dir, tmp_dir, args.skip_figs)
    append_entry(os.path.join(args.repo_root, "BENCH_engine.json"), "engine",
                 args.label, engine)
    append_entry(os.path.join(args.repo_root, "BENCH_micro.json"), "micro",
                 args.label, micro)


def metric_of(row):
    """(kind, value): prefer the rate when present, else the time."""
    if row.get("tuples_per_sec", 0.0) > 0.0:
        return ("rate", float(row["tuples_per_sec"]))
    return ("time", float(row.get("ns_per_op", 0.0)))


def baseline_for(path, machine):
    """The baseline's results to gate `machine`'s run against."""
    entries = entries_of(path)
    if "machine" not in entries[-1]:
        return entries[-1]["results"]  # a raw array: the caller chose it
    for entry in reversed(entries):
        if same_machine(entry.get("machine", {}), machine):
            print(f"baseline: entry {entry.get('label')!r} "
                  f"({machine.get('cpu')}, {machine.get('ncpu')} CPUs)")
            return entry.get("results", [])
    fail(f"no baseline for this machine ({machine.get('cpu')!r}, "
         f"{machine.get('ncpu')} CPUs) in {path}: record one with "
         f"`bench_trajectory.py run` before gating on it")


def cmd_check(args):
    cand_entry = entries_of(args.candidate)[-1]
    machine = cand_entry.get("machine") or machine_info()
    base = {r["name"]: r for r in baseline_for(args.baseline, machine)}
    cand = {r["name"]: r for r in cand_entry.get("results", [])}
    shared = sorted(set(base) & set(cand))
    if not shared:
        fail("no shared benchmark names between baseline and candidate")
    regressions = []
    for name in shared:
        kind, b = metric_of(base[name])
        _, c = metric_of(cand[name])
        if b <= 0.0:
            continue
        ratio = c / b
        bad = ratio < 1.0 - args.tolerance if kind == "rate" \
            else ratio > 1.0 + args.tolerance
        mark = "REGRESSION" if bad else "ok"
        print(f"{mark:>10}  {name}: {kind} {b:.4g} -> {c:.4g} "
              f"({(ratio - 1.0) * 100.0:+.1f}%)")
        if bad:
            regressions.append(name)
    if regressions:
        print(f"\nbench_trajectory: {len(regressions)} case(s) regressed "
              f"beyond {args.tolerance:.0%}:", file=sys.stderr)
        for name in regressions:
            print(f"  {name}", file=sys.stderr)
        sys.exit(1)
    print(f"\nbench_trajectory: all {len(shared)} shared cases within "
          f"{args.tolerance:.0%}")


def main():
    p = argparse.ArgumentParser(description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    pr = sub.add_parser("run", help="regenerate BENCH_*.json")
    pr.add_argument("--build-dir", required=True)
    pr.add_argument("--repo-root",
                    default=os.path.dirname(os.path.dirname(
                        os.path.abspath(__file__))))
    pr.add_argument("--label", default="latest")
    pr.add_argument("--reps", type=int, default=5)
    pr.add_argument("--skip-figs", action="store_true",
                    help="skip the fig12/fig13 sweeps (slow)")
    pr.set_defaults(func=cmd_run)

    pc = sub.add_parser("check", help="fail on >tolerance regression")
    pc.add_argument("--baseline", required=True)
    pc.add_argument("--candidate", required=True)
    pc.add_argument("--tolerance", type=float, default=0.10)
    pc.set_defaults(func=cmd_check)

    args = p.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
