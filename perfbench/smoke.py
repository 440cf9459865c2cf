#!/usr/bin/env python3
"""Smoke check of the end-to-end benchmark: a very short run of every
workload on a fixed seed, untraced and traced.

    python3 perfbench/smoke.py

Asserts that every metric BENCHMARK.json names is printed with its unit,
that no request failed, that hot_repeat is served from the memo
(engine.memo_hit_ratio >= 0.99) and cold_decide never is (== 0), that
cold_decide's queries take the routes they were generated for, and that
every recorded span's parent exists. Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = 2
# cold_decide's intended route shares (QueryGenerator::kSharePercent); the
# traced run measures the route each replayed request really took.
COLD_SHARES = {"reach-dp": 0.34, "sibling-nfa": 0.20, "djfree-dp": 0.24,
               "updown-rewrite": 0.12, "skeleton": 0.06, "bounded-model": 0.04}
SHARE_TOLERANCE = 0.03


def check(cond, message):
    if not cond:
        print("smoke: FAIL: " + message, file=sys.stderr)
        sys.exit(1)


def run(workload, trace, results):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace",
         str(trace), "--results", results],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    check(proc.returncode == 0, "%s trace=%d exited %d"
          % (workload, trace, proc.returncode))
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    check(sorted(last) == ["attempted", "correct", "failed", "metrics"],
          "result line keys: %s" % sorted(last))
    stem = os.path.join(results, workload, "seed%d-trace%d" % (SEED, trace))
    with open(stem + ".json") as f:
        detail = json.load(f)
    return last, detail, stem


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    results = os.path.join(ROOT, ".bench_results", "smoke")
    for w in bench["workloads"]:
        name = w["name"]
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            last, detail, stem = run(name, trace, results)
            got = last["metrics"]
            check(set(got) == {m["name"] for m in declared},
                  "%s trace=%d metric names differ from BENCHMARK.json"
                  % (name, trace))
            for m in declared:
                check(got[m["name"]]["unit"] == m["unit"],
                      "%s: %s has unit %s, not %s" % (
                          name, m["name"], got[m["name"]]["unit"], m["unit"]))
            check(last["correct"] and last["attempted"] >= 1,
                  "%s: nothing attempted" % name)
            e2e = detail["end_to_end"]
            check(e2e["failed_fraction"]["value"] == 0 and last["failed"] == 0,
                  "%s: failed_fraction %s" % (
                      name, e2e["failed_fraction"]["value"]))
            for metric in ("throughput_qps", "latency_p99_us", "probe_p50_us",
                           "probe_p99_us", "server_cpu_us_per_query",
                           "server_peak_rss_mb", "setup_s"):
                check(e2e[metric]["samples"] >= 1,
                      "%s: %s has no samples" % (name, metric))
            if trace:
                ratio = got["engine.memo_hit_ratio"]["value"]
                if name == "hot_repeat":
                    check(ratio >= 0.99, "hot_repeat memo_hit_ratio %s" % ratio)
                if name == "cold_decide":
                    check(ratio == 0, "cold_decide memo_hit_ratio %s" % ratio)
                    for route, share in COLD_SHARES.items():
                        got_share = got["sat.route_share." + route]["value"]
                        check(abs(got_share - share) <= SHARE_TOLERANCE,
                              "cold_decide %s share %.3f, meant %.2f"
                              % (route, got_share, share))
                with open(stem + ".spans.jsonl") as f:
                    spans = [json.loads(line) for line in f]
                check(spans, "%s: no spans recorded" % name)
                ids = {s["id"] for s in spans}
                orphans = [s for s in spans
                           if s["parent"] != -1 and s["parent"] not in ids]
                check(not orphans, "%s: span without parent: %s"
                      % (name, orphans[:1]))
                names = {s["name"] for s in spans}
                for n in ("client.submit", "client.ack", "client.result",
                          "layers", "xpath.parse", "xpath.features",
                          "sat.decide", "engine.submit_get"):
                    check(n in names, "%s: no %s span" % (name, n))
            print("smoke: %s trace=%d ok" % (name, trace))
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
