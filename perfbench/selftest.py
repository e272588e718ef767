#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at a tiny ring dimension.

    python3 perfbench/selftest.py

Checks, for every workload of BENCHMARK.json:
  * every end-to-end and per-layer metric is printed by name with its
    declared unit, and the run verifies correct;
  * the simulated metrics, precision and wire byte counts repeat bit-exactly
    for one seed, and the simulated metrics change with the seed (the byte
    counts too on the routines workloads, whose op mix the seed picks);
and that a response with one flipped result byte counts as failed.
Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

import run

SEEDS = (1, 2)
REPEATED = ("sim_request_ms_p50", "sim_throughput_rps", "precision_bits",
            "wire.request_bytes", "wire.response_bytes", "wire.chunk_frames")


def bench(workload, seed, trace, *extra):
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads((run.build_root() / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    return proc.stdout, json.loads(lines[-1]), record["driver"]


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        sys.exit(1)


def main():
    spec = run.load_spec()
    run.build_driver()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            text, result, _ = bench(workload, SEEDS[0], trace)
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace {trace}: every response verified")
            printed = all(
                result["metrics"].get(m["name"], {}).get("unit") == m["unit"]
                and m["name"] in text and m["unit"] in text
                for m in spec[section])
            check(printed and len(result["metrics"]) == len(spec[section]),
                  f"{workload} trace {trace}: all {len(spec[section])} "
                  f"{section} metrics printed with their units")

        def repeated(seed):
            raw = bench(workload, seed, 0)[2]
            values = {**raw["end_to_end"], **raw["per_layer"]}
            return tuple(values[name] for name in REPEATED)

        first, again, other = (repeated(SEEDS[0]), repeated(SEEDS[0]),
                               repeated(SEEDS[1]))
        check(first == again,
              f"{workload}: {', '.join(REPEATED)} repeat bit-exactly "
              f"for seed {SEEDS[0]}")
        # The routines' seed picks the round-robin start, so the window's
        # op mix and byte counts move with it; the tenants' mix is fixed
        # (only order, values and keys are seeded), so there only the
        # simulated metrics do.
        routines = workload.startswith("routines")
        moved = first[1] != other[1]
        if routines:
            moved = moved and first[3:5] != other[3:5]
        check(moved, f"{workload}: simulated throughput"
              f"{' and byte counts' if routines else ''} change with the seed")

    _, result, raw = bench("routines_n8k", SEEDS[0], 0, "--flip-result-byte")
    check(result["failed"] == 1 and not result["correct"]
          and raw["phases"]["timed"]["failed"] == 1,
          "a response with one flipped result byte counts as failed")
    print("selftest passed")


if __name__ == "__main__":
    main()
