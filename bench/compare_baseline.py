#!/usr/bin/env python3
"""Compare a bench JSON run against the checked-in baseline.

Usage: compare_baseline.py BASELINE.json CURRENT.json

Both files use the google-benchmark JSON layout ({"benchmarks": [{"name",
"real_time", ...}]}).  Every entry in the baseline must exist in the
current run, and every baseline entry must declare its "direction":
"higher" or "lower" is better.  The metric's name never decides its
direction; a baseline entry without a valid direction is an error.

The baseline holds only the *deterministic simulated* metrics emitted by
the fig_* --json benches, and those reproduce bit for bit.  Wall-clock
numbers vary too much across CI runners to gate on: a baseline entry
tagged "clock": "wall" is an error, and wall entries of the current run
are listed as wall-clock, never as missing a baseline.  So the gate is
exact: a metric that moves by more than a relative 1e-9 in *either*
direction fails, and a zero baseline fails as soon as the current value
is not 0.  The direction only labels a move as worse or better.  An
intended change refreshes the baseline (see REFRESH).

Exits 1 on any moved metric, on any baseline metric missing from the
current run (a deleted bench must not silently disable its gate), and on
an empty or malformed baseline or current file (a truncated artifact must
not read as "all 0 metrics within tolerance").  Metrics present in the
current run but absent from the baseline are listed as ungated so new
benches get baseline entries.
"""

import argparse
import json
import sys


DIRECTIONS = ("higher", "lower")
# Relative move beyond which a deterministic metric fails.
EXACT = 1e-9
REFRESH = (
    "rerun the six gated fig benches with --json (fig_multitile_batch, "
    "fig_fusion, fig_serving_latency, fig_program_serving, "
    "fig_program_compile, fig_multitenant) and run "
    "`python3 bench/merge_bench_json.py --require bench/baseline.json "
    "<their JSON files>`")


def load_entries(path):
    with open(path) as f:
        data = json.load(f)
    benchmarks = data.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise SystemExit(f"error: {path} has no benchmark entries")
    return benchmarks


def load_metrics(path):
    return {b["name"]: float(b["real_time"]) for b in load_entries(path)}


def wall_names(path):
    """Names of the entries tagged as wall-clock values."""
    return {b["name"] for b in load_entries(path) if b.get("clock") == "wall"}


def load_directions(path):
    """name -> "higher" | "lower"; a missing or unknown direction is fatal."""
    directions = {}
    for b in load_entries(path):
        direction = b.get("direction")
        if direction not in DIRECTIONS:
            raise SystemExit(
                f"error: {path}: {b['name']} has direction {direction!r}; "
                f"expected one of {', '.join(DIRECTIONS)}")
        directions[b["name"]] = direction
    return directions


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    args = parser.parse_args()

    baseline = load_metrics(args.baseline)
    directions = load_directions(args.baseline)
    wall_baseline = wall_names(args.baseline)
    if wall_baseline:
        raise SystemExit(
            f"error: {args.baseline} holds wall-clock entries, which are "
            f"never gated: {', '.join(sorted(wall_baseline))}")
    current = load_metrics(args.current)
    wall = wall_names(args.current)

    failures = []
    print(f"{'metric':<44}{'baseline':>12}{'current':>12}{'ratio':>8}")
    for name, base in sorted(baseline.items()):
        if name not in current:
            failures.append(f"{name}: missing from current run")
            print(f"{name:<44}{base:>12.3f}{'MISSING':>12}")
            continue
        cur = current[name]
        if cur == base:
            moved = 0.0
        else:
            # A zero baseline has no ratio: any non-zero value moved.
            moved = abs(cur - base) / abs(base) if base else float("inf")
        ratio = f"{cur / base:>8.3f}" if base else f"{'-':>8}"
        flag = ""
        if moved > EXACT:
            better = (cur > base) == (directions[name] == "higher")
            flag = "  BETTER" if better else "  WORSE"
            failures.append(
                f"{name}: {base:.6g} -> {cur:.6g} "
                f"({'better' if better else 'worse'})")
        print(f"{name:<44}{base:>12.3f}{cur:>12.3f}{ratio}{flag}")

    if wall:
        print(f"note: {len(wall)} wall-clock metric(s), never gated: "
              f"{', '.join(sorted(wall))}")
    ungated = sorted(set(current) - set(baseline) - wall)
    if ungated:
        print(f"note: {len(ungated)} metric(s) have no baseline entry "
              f"(not gated): {', '.join(ungated[:8])}"
              f"{', ...' if len(ungated) > 8 else ''}")
    if failures:
        print(f"\n{len(failures)} deterministic metric(s) differ from the "
              f"baseline (relative {EXACT:g}):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print(f"If the change is intended, refresh the baseline: {REFRESH}.",
              file=sys.stderr)
        return 1
    print(f"\nall {len(baseline)} metrics match the baseline exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
