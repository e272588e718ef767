#!/usr/bin/env python3
"""End-to-end wall-clock benchmark of the served CKKS stack.

Builds perfbench/driver.cpp against the checkout's src/ (CMake, Release, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, and prints every
metric BENCHMARK.json names for it, with the unit and direction declared
there.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  A traced run additionally records obs spans around every layer
call, validates the exported Chrome trace with obs::check_chrome_trace, and
prints each layer's self time computed from that file.  Every result is
saved with a machine descriptor under <build dir>/results/.

    python3 perfbench/run.py --workload routines_n8k --seed 1 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 1

--tiny shrinks the ring dimension (self-test size); --flip-result-byte
corrupts one result byte of the first timed response (it must count as
failed).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build_driver():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no xehe sources under {ROOT / 'src'}; run from a checkout")
    build_dir = build_root() / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", str(build_dir), "-j",
                    str(os.cpu_count() or 1)])
    driver = build_dir / "perfbench_driver"
    if not driver.is_file():
        fail(f"build produced no {driver}")
    return driver


def run_build_step(cmd):
    # Build output goes to stderr: stdout must end with the result line.
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False)
    if proc.returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}")


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"missing {path}")
    return json.loads(path.read_text())


def run_driver(driver, workload, seed, seconds, trace, tiny, flip, trace_out):
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", str(trace_out)]
    if tiny:
        cmd.append("--tiny")
    if flip:
        cmd.append("--flip-result-byte")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Per-layer self time from the exported Chrome trace
# ---------------------------------------------------------------------------

def union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def layer_self_times(trace_path):
    """Self time per layer (span-name prefix) over the host-clock spans.

    A span's self time is its duration minus the part of it covered by its
    host-clock children; a child recorded under a simulated-clock span
    (the server's serve.request/serve.lane) counts toward its nearest
    host-clock ancestor.  Trees rooted at the benchmark's own spans
    (bench.request / bench.burst) are the round trip; trees rooted
    elsewhere (shard drain threads) ran concurrently with it and are
    tabled apart.
    """
    doc = json.loads(Path(trace_path).read_text())
    events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    by_id = {e["args"]["span"]: e for e in events}

    def host_parent(event):
        parent = event["args"]["parent"]
        while parent in by_id and by_id[parent]["pid"] != 2:
            parent = by_id[parent]["args"]["parent"]
        return parent if parent in by_id else 0

    host = [e for e in events if e["pid"] == 2]
    parent_of = {e["args"]["span"]: host_parent(e) for e in host}
    children = defaultdict(list)
    for e in host:
        children[parent_of[e["args"]["span"]]].append(e)

    def root_of(span):
        while parent_of.get(span, 0):
            span = parent_of[span]
        return span

    tables = {"round_trip": defaultdict(float),
              "concurrent": defaultdict(float)}
    wall = {"round_trip": 0.0, "concurrent": 0.0}
    for e in host:
        lo, hi = e["ts"], e["ts"] + e["dur"]
        covered = union_length(
            (max(c["ts"], lo), min(c["ts"] + c["dur"], hi))
            for c in children[e["args"]["span"]]
            if c["ts"] < hi and c["ts"] + c["dur"] > lo)
        root = by_id[root_of(e["args"]["span"])]
        side = ("round_trip" if root["name"].startswith("bench.")
                else "concurrent")
        tables[side][e["name"].split(".")[0]] += (e["dur"] - covered) / 1e3
        if e is root:
            wall[side] += e["dur"] / 1e3
    sim_ms = sum(e["dur"] for e in events
                 if e["pid"] == 1 and e["name"] == "serve.request") / 1e3
    out = {}
    for side, table in tables.items():
        out[side] = {
            "wall_ms": wall[side],
            "layers": {
                layer: {"self_ms": ms,
                        "share": ms / wall[side] if wall[side] else 0.0}
                for layer, ms in sorted(table.items(),
                                        key=lambda kv: -kv[1])},
        }
    out["sim_request_ms_total"] = sim_ms
    return out


def print_layer_table(selftimes):
    print("  per-layer self time (from the exported trace):")
    for side in ("round_trip", "concurrent"):
        part = selftimes[side]
        if not part["layers"]:
            continue
        label = ("round trip" if side == "round_trip"
                 else "shard drain threads (concurrent with serve.run)")
        print(f"    {label}: {part['wall_ms']:.1f} ms wall")
        for layer, row in part["layers"].items():
            print(f"      {layer:<10} {row['self_ms']:12.2f} ms  "
                  f"{100.0 * row['share']:6.2f} %")
    print(f"    simulated device time (serve.request spans): "
          f"{selftimes['sim_request_ms_total']:.2f} ms")


# ---------------------------------------------------------------------------
# Machine descriptor
# ---------------------------------------------------------------------------

def machine_descriptor(build):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": build["compiler"],
        "build_type": build["build_type"],
        "xehe_obs": build["xehe_obs"],
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads_used": build["threads"],
    }


# ---------------------------------------------------------------------------

def run_workload(driver, spec, args, workload, trace):
    results = build_root() / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{int(trace)}"
    trace_out = results / f"{stem}.trace.json"
    raw = run_driver(driver, workload, args.seed, args.seconds, trace,
                     args.tiny, args.flip_result_byte, trace_out)
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for entry in spec[section]:
        name = entry["name"]
        if name not in raw[section]:
            fail(f"driver did not report {name}")
        metrics[name] = {"value": raw[section][name], "unit": entry["unit"]}
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "tiny": args.tiny, "driver": raw,
        "machine": machine_descriptor(raw["build"]),
    }
    if trace and raw["trace_file"]:
        record["self_time"] = layer_self_times(raw["trace_file"])
        print_layer_table(record["self_time"])
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))

    tail = raw["tail"]
    print(f"  {section} metrics ({workload}; tail = p{tail['percentile']:g} "
          f"over {tail['samples']:g} samples, {tail['beyond']:g} beyond):")
    for entry in spec[section]:
        m = metrics[entry["name"]]
        print(f"    {entry['name']:<28} {m['value']:>16.6g} {m['unit']:<8}"
              f" ({entry['better']} is better)")
    shares = ", ".join(f"{k} {v:.3f}" for k, v in raw["shares"].items())
    print(f"  shares of timed requests: {shares}")
    return {"correct": raw["correct"], "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--flip-result-byte", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail(f"unknown workload {args.workload}; choose from {names}")
    start = time.monotonic()
    driver = build_driver()
    print(f"perfbench: driver ready in {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    results = [run_workload(driver, spec, args, w, bool(args.trace))
               for w in workloads]
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps(dict(zip(workloads, results))))


if __name__ == "__main__":
    main()
