"""Compare benchmark records of a parent commit and a change.

    python3 bench/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...

Records come from `run.py --record FILE`.  Runs are grouped by workload.  A
comparison is INVALID when a parent run and a change run of the same
workload and seed saw inputs with different SHA-256 digests.  For every
end-to-end metric in BENCHMARK.json it prints both medians with their
quartiles and flags a change whose median is worse than the parent's by
more than the metric's bound.  Exits 1 when the comparison is invalid or a
bound is broken.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    by_workload = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load(args.parent), load(args.change)

    status = 0
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        digests = {r["seed"]: r["inputs_sha256"] for r in p_runs}
        bad = [r["seed"] for r in c_runs
               if r["seed"] in digests and digests[r["seed"]] != r["inputs_sha256"]]
        if bad or not p_runs or not c_runs:
            print("%s INVALID: %s" % (workload, "input digests differ for seeds %s" % bad
                                      if bad else "runs missing on one side"))
            status = 1
            continue
        if not all(r["correct"] for r in p_runs + c_runs):
            print("%s: some run failed its output checks" % workload)
            status = 1
        for m in spec["end_to_end"]:
            p = quartiles([r["metrics"][m["name"]] for r in p_runs])
            c = quartiles([r["metrics"][m["name"]] for r in c_runs])
            worse = (c[1] - p[1]) / p[1] if m["better"] == "lower" else (p[1] - c[1]) / p[1]
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            if worse > m["bound"]:
                status = 1
            print("%-10s %-12s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  "
                  "worse by %+.1f%% (bound %.0f%%)  %s"
                  % (workload, m["name"], p[1], p[0], p[2], c[1], c[0], c[2],
                     100 * worse, 100 * m["bound"], verdict))
    return status


if __name__ == "__main__":
    sys.exit(main())
