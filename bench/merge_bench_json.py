#!/usr/bin/env python3
"""Merge several google-benchmark-layout JSON files into one artifact.

Usage: merge_bench_json.py [--require] OUT.json IN1.json [IN2.json ...]

By default, inputs that do not exist are skipped with a note (the
wall-clock micro benches are optional — they are only built when
google-benchmark is installed), so the CI artifact degrades gracefully.

With --require, a missing or entry-less input is a hard error: the gated
merge (the file compare_baseline.py diffs against the baseline) must fail
loudly when a gated bench was deleted or failed to write its JSON, instead
of silently dropping that bench's metrics from the gate.  The gated merge
also drops every entry tagged "clock": "wall" (bench::Clock::Wall): it is
the baseline's refresh input, and wall-clock values are never gated.

Inputs may also be obs::Registry snapshots (marked "obs_registry": 1, as
written by `fig_serving_latency --metrics` or Registry::write_json).
Their counters/gauges flatten to one benchmark entry each under the
`obs/` prefix, histograms to count/p50/p95/p99 entries, so registry
metrics ride the same artifact (and can be baseline-gated) without a
second pipeline.
"""

import argparse
import json
import os
import sys


def registry_to_entries(data):
    """Flatten an obs::Registry snapshot into benchmark-layout entries."""
    entries = []
    for metric in data.get("metrics", []):
        name = f"obs/{metric['name']}"
        kind = metric.get("type", "counter")
        if kind == "histogram":
            unit = "ns" if metric["name"].endswith("_ns") else "value"
            entries.append({"name": f"{name}/count", "run_type": "iteration",
                            "real_time": metric.get("count", 0),
                            "time_unit": "count"})
            for q in ("p50", "p95", "p99"):
                if q in metric:
                    entries.append({"name": f"{name}/{q}",
                                    "run_type": "iteration",
                                    "real_time": metric[q],
                                    "time_unit": unit})
        else:
            entries.append({"name": name, "run_type": "iteration",
                            "real_time": metric.get("value", 0),
                            "time_unit": "count" if kind == "counter"
                            else "value"})
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--require", action="store_true",
                        help="fail on missing or empty inputs")
    parser.add_argument("out")
    parser.add_argument("inputs", nargs="+")
    args = parser.parse_args()

    merged = {"context": {"sources": []}, "benchmarks": []}
    for path in args.inputs:
        if not os.path.exists(path):
            if args.require:
                print(f"error: required input {path} not found",
                      file=sys.stderr)
                return 1
            print(f"note: {path} not found, skipping")
            continue
        with open(path) as f:
            data = json.load(f)
        if data.get("obs_registry") == 1:
            entries = registry_to_entries(data)
        else:
            entries = data.get("benchmarks", [])
        if args.require and not entries:
            print(f"error: required input {path} has no benchmark entries",
                  file=sys.stderr)
            return 1
        if args.require:
            wall = [e["name"] for e in entries if e.get("clock") == "wall"]
            if wall:
                print(f"note: dropped {len(wall)} wall-clock entr"
                      f"{'y' if len(wall) == 1 else 'ies'} of {path}: "
                      f"{', '.join(wall)}")
            entries = [e for e in entries if e.get("clock") != "wall"]
        merged["context"]["sources"].append(
            {"file": os.path.basename(path),
             "context": data.get("context", {})})
        merged["benchmarks"].extend(entries)
    with open(args.out, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"wrote {len(merged['benchmarks'])} entries from "
          f"{len(merged['context']['sources'])} file(s) to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
