#!/usr/bin/env python3
"""Self-test of the baseline gate (compare_baseline.py).

Usage: selftest_compare_baseline.py BASELINE.json

Checks, in-process against copies of the real baseline:
  * the baseline compared with itself (an identical run) passes;
  * for each direction, every metric of that direction regressed 2x the
    wrong way at once fails the gate, and so does improved 2x: the gated
    metrics are deterministic, so the gate is exact;
  * each metric with a non-zero baseline fails the gate when it alone
    regresses 2x, moves up 1% or moves down 1%;
  * a lower-is-better metric with a zero baseline fails once it rises
    above 0 and passes while it stays 0 (checked on the real baseline's
    zero entries and on a synthetic one);
  * a baseline entry without a direction (or with an unknown one) fails;
  * a baseline entry tagged "clock": "wall" fails, and a wall-tagged entry
    of the current run passes and is reported as wall-clock, not as
    needing a baseline entry;
  * merge_bench_json.py --require (the gated merge, which is also the
    baseline's refresh input) drops wall-tagged entries, and the plain
    artifact merge keeps them.

Exits 1 on the first broken expectation.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare_baseline  # noqa: E402
import merge_bench_json  # noqa: E402


def run(module, argv, sink=None):
    """Exit code of `module`.main() under `argv`, output captured."""
    sys.argv = argv
    sink = sink if sink is not None else io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return module.main()
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1


def gate(tmp, baseline, current, sink=None):
    """Exit code of compare_baseline.py on the two documents."""
    paths = []
    for label, doc in (("baseline", baseline), ("current", current)):
        path = os.path.join(tmp, f"{label}.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        paths.append(path)
    return run(compare_baseline, ["compare_baseline.py", *paths], sink)


def merged_names(tmp, doc, require):
    """Entry names merge_bench_json.py keeps from `doc`, or None on error."""
    src = os.path.join(tmp, "merge_in.json")
    out = os.path.join(tmp, "merge_out.json")
    with open(src, "w") as f:
        json.dump(doc, f)
    argv = ["merge_bench_json.py", *(["--require"] if require else []),
            out, src]
    if run(merge_bench_json, argv) != 0:
        return None
    with open(out) as f:
        return [b["name"] for b in json.load(f)["benchmarks"]]


def scaled(baseline, factor_of):
    """Copy of `baseline` with each entry's value times factor_of(entry)."""
    doc = copy.deepcopy(baseline)
    for b in doc["benchmarks"]:
        b["real_time"] = b["real_time"] * factor_of(b)
    return doc


def worse(direction):
    return 0.5 if direction == "higher" else 2.0


def main():
    with open(sys.argv[1]) as f:
        baseline = json.load(f)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        if gate(tmp, baseline, baseline) != 0:
            failures.append("baseline against itself did not pass")

        for direction in compare_baseline.DIRECTIONS:
            picked = [b for b in baseline["benchmarks"]
                      if b["direction"] == direction]
            if not picked:
                failures.append(f"no baseline metric is {direction}-better")
                continue
            regressed = scaled(
                baseline, lambda b: worse(direction)
                if b["direction"] == direction else 1.0)
            if gate(tmp, baseline, regressed) != 1:
                failures.append(f"{direction}-better metrics regressed 2x "
                                "passed the gate")
            improved = scaled(
                baseline, lambda b: 1.0 / worse(direction)
                if b["direction"] == direction else 1.0)
            if gate(tmp, baseline, improved) != 1:
                failures.append(f"{direction}-better metrics improved 2x "
                                "passed the exact gate")

        for entry in baseline["benchmarks"]:
            if entry["real_time"] == 0:
                continue  # zero baselines: checked below
            name = entry["name"]
            for label, factor in (("regressed 2x", worse(entry["direction"])),
                                  ("moved up 1%", 1.01),
                                  ("moved down 1%", 0.99)):
                moved = scaled(baseline, lambda b: factor
                               if b["name"] == name else 1.0)
                if gate(tmp, baseline, moved) != 1:
                    failures.append(f"{name} {label} alone passed the gate")

        with_zero = copy.deepcopy(baseline)
        with_zero["benchmarks"].append(
            {"name": "selftest/zero_lower", "run_type": "iteration",
             "real_time": 0, "time_unit": "count", "direction": "lower"})
        for entry in with_zero["benchmarks"]:
            if entry["real_time"] != 0 or entry["direction"] != "lower":
                continue
            name = entry["name"]
            risen = copy.deepcopy(with_zero)
            for b in risen["benchmarks"]:
                if b["name"] == name:
                    b["real_time"] = 1
            if gate(tmp, with_zero, risen) != 1:
                failures.append(f"{name}: zero baseline risen to 1 passed "
                                "the gate")
        if gate(tmp, with_zero, with_zero) != 0:
            failures.append("zero baselines held at 0 failed the gate")

        for bad in (None, "sideways"):
            broken = copy.deepcopy(baseline)
            if bad is None:
                del broken["benchmarks"][0]["direction"]
            else:
                broken["benchmarks"][0]["direction"] = bad
            if gate(tmp, broken, baseline) != 1:
                failures.append(f"baseline entry with direction {bad!r} "
                                "was accepted")

        wall_entry = {"name": "selftest/wall_ms", "run_type": "iteration",
                      "real_time": 1.5, "time_unit": "ms",
                      "direction": "lower", "clock": "wall"}
        walled = copy.deepcopy(baseline)
        walled["benchmarks"].append(dict(wall_entry))
        if gate(tmp, walled, walled) != 1:
            failures.append("baseline entry tagged wall was accepted")
        sink = io.StringIO()
        if gate(tmp, baseline, walled, sink) != 0:
            failures.append("wall-clock entry in the current run failed "
                            "the gate")
        report = sink.getvalue()
        if ("wall-clock" not in report or wall_entry["name"] not in report
                or "no baseline entry" in report):
            failures.append("wall-clock entry in the current run was not "
                            "reported as wall-clock")

        names = merged_names(tmp, walled, require=True)
        if names is None or wall_entry["name"] in names or \
                len(names) != len(baseline["benchmarks"]):
            failures.append("merge --require kept a wall-clock entry or "
                            "dropped a simulated one")
        names = merged_names(tmp, walled, require=False)
        if names is None or wall_entry["name"] not in names:
            failures.append("artifact merge dropped a wall-clock entry")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if failures:
        return 1
    print(f"compare_baseline self-test passed "
          f"({len(baseline['benchmarks'])} baseline metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
