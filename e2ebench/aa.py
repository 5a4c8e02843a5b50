#!/usr/bin/env python3
"""A/A comparison: the benchmark in two interleaved sets on one build.

    python3 e2ebench/aa.py --runs 10
    python3 e2ebench/aa.py --runs 5 --workloads tpch_serial

Run i uses seed 1000+i in both sets; set A goes first on even i and set B on
odd i, so a drift in machine speed lands on both sets alike. For every
workload and end-to-end metric it prints each set's median and quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median, and the shift of
B's median against A's as a share of A's. A metric is flagged when its spread
(setup_s excepted) or the shift exceeds its bound in BENCHMARK.json; these
figures are what the bounds rest on. A run that fails a correctness check is
kept and flagged. Raw results and provenance are written to --out.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SEED_BASE = 1000


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=1200)
    lines = p.stdout.strip().splitlines()
    # Exit status 1 still prints a result, with "correct": false; keep it.
    if p.returncode not in (0, 1) or not lines:
        sys.exit(f"run failed ({workload}, seed {seed}):\n{p.stderr[-3000:]}")
    if p.returncode == 1:
        print(f"check failed ({workload}, seed {seed}):\n{p.stderr[-1000:]}",
              file=sys.stderr)
    provenance = next((json.loads(l)["provenance"] for l in lines
                       if l.startswith('{"provenance"')), {})
    return json.loads(lines[-1]), provenance


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build", "e2ebench-aa.json"))
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    workloads = args.workloads.split(",")
    metrics = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    sets = "AB"

    raw = {s: {w: [] for w in workloads} for s in sets}
    provenance = {}
    for i in range(args.runs):
        order = sets if i % 2 == 0 else sets[::-1]
        for s in order:
            for w in workloads:
                t0 = time.time()
                result, provenance = run_once(w, SEED_BASE + i, args.seconds, args.trace)
                raw[s][w].append(result)
                print(f"run {i} set {s} {w}: {time.time() - t0:.1f} s", file=sys.stderr)

    flagged = 0
    report = {}
    for w in workloads:
        print(f"\n== {w} ({args.runs} runs per set)")
        for s in sets:
            bad = sum(not r["correct"] for r in raw[s][w])
            if bad:
                flagged += 1
                print(f"FLAG: {bad} run(s) of set {s} failed a correctness check")
        print(f"{'metric':32} {'set':3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
        for m in metrics:
            name = m["name"]
            per_set = {s: summary([r["metrics"][name]["value"] for r in raw[s][w]])
                       for s in sets}
            for s in sets:
                st = per_set[s]
                print(f"{name:32} {s:3} {st['median']:14.6g} {st['q1']:14.6g} "
                      f"{st['q3']:14.6g} {st['spread']:8.4f}")
            a, b = per_set["A"]["median"], per_set["B"]["median"]
            entry = {"sets": per_set, "shift": (b - a) / a if a else 0.0}
            print(f"{'':32} shift of B vs A: {entry['shift']:+.4f}")
            bound = m.get("bound")
            if bound is not None:
                worst = max([per_set[s]["spread"] for s in sets if name != "setup_s"] +
                            [abs(entry["shift"])])
                if worst > bound:
                    flagged += 1
                    print(f"{'':32} FLAG: {worst:.4f} exceeds bound {bound}")
            report.setdefault(w, {})[name] = entry

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"provenance": {**provenance, "runs": args.runs, "sets": 2,
                                  "host": platform.node(), "seconds": args.seconds},
                   "summary": report, "raw": raw}, f, indent=1)
    print(f"\n{flagged} flagged; results in {args.out}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
