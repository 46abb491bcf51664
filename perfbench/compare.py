#!/usr/bin/env python3
"""Repeated runs, spreads and regression flags for the benchmark.

Run from the repository root.  Records are JSON lines
{"workload", "seed", "delay", "result"} where "result" is the last line
printed by perfbench/run.py.

    compare.py runs --out FILE [--workloads a,b] [--seeds 1-10]
        append one record per (workload, seed) run
    compare.py spread FILE
        per workload and end-to-end metric: median, IQR/median (the
        acceptance spread, statistics.quantiles(n=4)) and the bound
    compare.py flags BASE NEW
        compare NEW with BASE, per workload and end-to-end metric
    compare.py selfcheck
        sensitivity self-check: for ten rounds, per workload, runs a
        baseline, a re-run of unchanged code and (in the first five
        rounds) a run with a 15% per-op delay injected, back to back;
        records go to perfbench/out/selfcheck.jsonl.  Exits 1 if the
        re-runs are flagged, or the delayed runs are not flagged on
        every workload.

Two flags:

- "beyond bound": the NEW median is worse than the BASE median by more
  than the metric's BENCHMARK.json bound.  This is the gate on a change.
- "regression": runs are paired in order (the i-th NEW run with the
  i-th BASE run of the workload) and NEW is worse in at least 80% of
  the pairs, by a median of more than 7.5%.  Pairs must be run back to
  back: the host's speed drifts by 15% or more over minutes (a fixed
  single-threaded loop on the 2-vCPU reference host varied 1.6x between
  2-second windows), so only adjacent runs resolve a change smaller
  than the bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SPEC = json.load(open("BENCHMARK.json"))
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OP_METRICS = ["op_s.p50", "op_s.p90", "work_per_s"]  # the ones a per-op delay moves
MIN_PAIRED_SHARE = 0.075
MIN_PAIRS_WORSE = 0.8
SELFCHECK_RUNS = 10
SELFCHECK_DELAYED = 5
SELFCHECK_DELAY = 0.15
SELFCHECK_OUT = "perfbench/out/selfcheck.jsonl"


def run_one(workload, seed, delay=0.0):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    if delay:
        cmd += ["--delay", str(delay)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"] or result["failed"] > 0:
        sys.exit("%s seed %d: %d of %d ops failed their checks" % (
            workload, seed, result["failed"], result["attempted"]))
    return {"workload": workload, "seed": seed, "delay": delay, "result": result}


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def values(records, workload, metric):
    return [r["result"]["metrics"][metric]["value"]
            for r in records if r["workload"] == workload]


def worse_share(metric, base, new):
    """How much worse [new] is than [base], as a share of [base]."""
    if BOUNDS[metric]["better"] == "lower":
        return (new - base) / base
    return (base - new) / base


def print_spread(records):
    print("%-16s %-12s %3s %14s %8s %6s" % ("workload", "metric", "n", "median",
                                             "iqr/med", "bound"))
    for w in WORKLOADS:
        for m in BOUNDS:
            vs = values(records, w, m)
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread, bound = (q3 - q1) / med, BOUNDS[m]["bound"]
            note = "" if m == "setup_s" or spread <= bound / 3 else "  <-- above bound/3"
            print("%-16s %-12s %3d %14.6g %8.4f %6.2f%s" % (
                w, m, len(vs), statistics.median(vs), spread, bound, note))


def beyond_bound(base, new):
    """(workload, metric, worse share) where the NEW median is worse than
    the BASE median by more than the bound."""
    out = []
    for w in WORKLOADS:
        for m in BOUNDS:
            b, n = values(base, w, m), values(new, w, m)
            if b and n:
                share = worse_share(m, statistics.median(b), statistics.median(n))
                if share > BOUNDS[m]["bound"]:
                    out.append((w, m, share))
    return out


def regressions(base, new):
    """(workload, metric, median paired share, pairs worse) for every op
    metric that NEW makes worse in the paired test."""
    out = []
    for w in WORKLOADS:
        for m in OP_METRICS:
            shares = [worse_share(m, b, n)
                      for b, n in zip(values(base, w, m), values(new, w, m))]
            if not shares:
                continue
            worse = sum(s > 0 for s in shares) / len(shares)
            med = statistics.median(shares)
            if med > MIN_PAIRED_SHARE and worse >= MIN_PAIRS_WORSE:
                out.append((w, m, med, worse))
    return out


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("runs")
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p = sub.add_parser("spread")
    p.add_argument("file")
    p = sub.add_parser("flags")
    p.add_argument("base")
    p.add_argument("new")
    sub.add_parser("selfcheck")
    args = ap.parse_args()

    if args.cmd == "runs":
        with open(args.out, "a") as f:
            for w in args.workloads.split(","):
                for s in seeds(args.seeds):
                    rec = run_one(w, s)
                    f.write(json.dumps(rec) + "\n")
                    f.flush()
                    print(w, s, {m: round(v["value"], 6)
                                 for m, v in rec["result"]["metrics"].items()},
                          file=sys.stderr)
        return
    if args.cmd == "spread":
        print_spread(load(args.file))
        return
    if args.cmd == "flags":
        base, new = load(args.base), load(args.new)
        for w, m, share in beyond_bound(base, new):
            print("beyond bound: %s %s median worse by %.1f%% (bound %.0f%%)" % (
                w, m, 100 * share, 100 * BOUNDS[m]["bound"]))
        for w, m, share, worse in regressions(base, new):
            print("regression: %s %s worse in %.0f%% of pairs, median %.1f%%" % (
                w, m, 100 * worse, 100 * share))
        return

    os.makedirs(os.path.dirname(SELFCHECK_OUT), exist_ok=True)
    sets = {"base": [], "rerun": [], "delayed": []}
    with open(SELFCHECK_OUT, "a") as f:
        for i in range(SELFCHECK_RUNS):
            for w in WORKLOADS:
                plan = [("base", 1 + i, 0.0), ("rerun", 1001 + i, 0.0)]
                if i < SELFCHECK_DELAYED:
                    plan.append(("delayed", 2001 + i, SELFCHECK_DELAY))
                for kind, seed, delay in plan:
                    rec = run_one(w, seed, delay)
                    rec["set"] = kind
                    sets[kind].append(rec)
                    f.write(json.dumps(rec) + "\n")
                    f.flush()
    base, rerun, delayed = sets["base"], sets["rerun"], sets["delayed"]
    for name, records in (("base", base), ("re-run", rerun), ("delayed", delayed)):
        print("%s set:" % name)
        print_spread(records)
    bad = 0
    for w, m, share in beyond_bound(base, rerun):
        bad += 1
        print("false flag: re-run median of %s %s worse by %.1f%%, beyond the bound" % (
            w, m, 100 * share))
    for w, m, share, worse in regressions(base, rerun):
        bad += 1
        print("false flag: re-runs of %s %s worse in %.0f%% of pairs, median %.1f%%" % (
            w, m, 100 * worse, 100 * share))
    caught = set()
    for w, m, share, worse in regressions(base, delayed):
        caught.add(w)
        print("delayed runs flagged: %s %s worse in %.0f%% of pairs, median %.1f%%" % (
            w, m, 100 * worse, 100 * share))
    for w in WORKLOADS:
        if w not in caught:
            bad += 1
            print("missed: the 15%% delay was not flagged on %s" % w)
    print("self-check %s" % ("FAILED" if bad else "passed"))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
