#!/usr/bin/env python3
"""Compares two sets of benchmark runs, one row per workload and
end-to-end metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds run.py result files (<workload>/seed<N>-trace0.json,
as written under --results). For every metric a run reports, the row shows
each side's median and quartiles and a verdict:

  regression  the change's median is worse than the base's by more than the
              metric's bound (BENCHMARK.json)
  unresolved  the spread of either side (quartile distance over median) is
              wider than the bound, unless every change run is better than
              every base run
  ok          neither
Metrics BENCHMARK.json does not declare are shown with verdict "info".
Exits 1 when any row is a regression. Standard library only.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{workload: {metric: [values]}} over the untraced runs."""
    out = {}
    pattern = os.path.join(directory, "*", "seed*-trace0.json")
    for path in sorted(glob.glob(pattern)):
        with open(path) as f:
            run = json.load(f)
        per = out.setdefault(run["workload"], {})
        for name, metric in run["end_to_end"].items():
            per.setdefault(name, []).append(metric["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        declared = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, change = load(sys.argv[1]), load(sys.argv[2])
    regressions = 0
    header = "%-16s %-24s %8s %8s %33s %33s  %s" % (
        "workload", "metric", "n", "n", "base q1 / median / q3",
        "change q1 / median / q3", "verdict")
    print(header)
    for workload in sorted(set(base) & set(change)):
        for name in sorted(set(base[workload]) & set(change[workload])):
            a, b = base[workload][name], change[workload][name]
            qa, qb = quartiles(a), quartiles(b)
            meta = declared.get(name)
            if meta is None:
                verdict = "info"
            else:
                lower = meta["better"] == "lower"
                bound = meta["bound"]
                worse = (qb[1] - qa[1]) if lower else (qa[1] - qb[1])
                all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
                if qa[1] and worse > bound * abs(qa[1]):
                    verdict = "regression"
                    regressions += 1
                elif (spread(a) > bound or spread(b) > bound) and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            print("%-16s %-24s %8d %8d %33s %33s  %s" % (
                workload, name, len(a), len(b),
                "%.5g / %.5g / %.5g" % qa, "%.5g / %.5g / %.5g" % qb, verdict))
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
