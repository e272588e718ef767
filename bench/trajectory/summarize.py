#!/usr/bin/env python3
"""Summarizes alternating-pair perfbench runs into one trajectory file.

Reads the result records perfbench/run.py saves under <build dir>/results/
for the parent checkout and for the changed one, and writes, per workload,
the median of every metric BENCHMARK.json names: end-to-end metrics from
the untraced runs, per-layer metrics from the traced runs.  Next to each
median stand both sides' interquartile ranges and the number of same-seed
pairs in which the change did better.  Each side keeps the machine
descriptor run.py recorded.  Metrics that must not move (simulated time,
precision, wire bytes) are also compared seed by seed.

    python3 bench/trajectory/summarize.py --pr N \\
        --parent PARENT_BUILD/results --change CHANGE_BUILD/results \\
        --out bench/trajectory/BENCH_prN.json
"""

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
# Deterministic per seed: the change must reproduce the parent exactly.
SAME_PER_SEED = ("sim_request_ms_p50", "sim_throughput_rps", "precision_bits",
                 "wire.request_bytes", "wire.response_bytes",
                 "wire.chunk_frames")


def load_side(results_dir):
    """{(workload, section): {seed: metrics}} and the machine descriptor."""
    runs = defaultdict(dict)
    machine = None
    for path in sorted(Path(results_dir).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        if record["tiny"]:
            continue
        section = "per_layer" if record["trace"] else "end_to_end"
        runs[(record["workload"], section)][record["seed"]] = (
            record["driver"][section])
        machine = record["machine"]
    return runs, machine


def quartiles(values):
    """[first quartile, third quartile]; a lone value stands for both."""
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, parent_machine = load_side(args.parent)
    change, change_machine = load_side(args.change)
    workloads = {}
    for w in (entry["name"] for entry in spec["workloads"]):
        out = {}
        for section in ("end_to_end", "per_layer"):
            a = parent.get((w, section), {})
            b = change.get((w, section), {})
            seeds = sorted(set(a) & set(b))
            if not seeds:
                continue
            metrics = {}
            for entry in spec[section]:
                name = entry["name"]
                pa = [a[s][name] for s in seeds]
                pb = [b[s][name] for s in seeds]
                m = {"unit": entry["unit"], "better": entry["better"],
                     "parent": statistics.median(pa),
                     "change": statistics.median(pb),
                     "parent_iqr": quartiles(pa),
                     "change_iqr": quartiles(pb),
                     "pairs_better": sum(
                         (y < x) if entry["better"] == "lower" else (y > x)
                         for x, y in zip(pa, pb))}
                if name in SAME_PER_SEED:
                    m["identical_per_seed"] = pa == pb
                metrics[name] = m
            out[section] = {"seeds": seeds, "metrics": metrics}
        workloads[w] = out
    doc = {
        "pr": args.pr,
        "method": "medians and interquartile ranges over alternating "
                  "parent/change pairs of perfbench/run.py on one machine, "
                  "one seed per pair",
        "machine": {"parent": parent_machine, "change": change_machine},
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
