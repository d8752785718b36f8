#!/usr/bin/env python3
"""Paired comparison of two checkouts on the end-to-end benchmark.

    python3 e2ebench/compare.py --parent <checkout> --change <checkout> \
        [--pairs 10] [--seconds N] [--workload NAME ...] [--seed0 1000]

Each checkout runs its own e2ebench/run.py from its own root, so both
sides build and run with the benchmark code they carry; a change that
claims a gain leaves that code alone, so the two sides match. Pair i runs
both sides on seed seed0 + i, parent first in even pairs and change first
in odd ones. For each workload and end-to-end metric the report gives
both sides' medians and quartiles, the fraction of pairs the change won,
and the verdict under the bound BENCHMARK.json fixes (benchstats.
pair_verdict). The failed share of operations must match exactly.
Exits 1 when any verdict is "worse" or a run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("e2ebench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("run failed in %s: %s seed %d" % (checkout, workload,
                                                           seed))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds of the parent's BENCHMARK.json")
    ap.add_argument("--workload", action="append", default=None)
    ap.add_argument("--seed0", type=int, default=1000)
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("--pairs must be at least 10")

    spec = load_spec(args.parent)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}

    results = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                r = run_once(sides[side], w, args.seed0 + i, seconds)
                results[w][side].append(r)
                print("pair %d %-14s %-6s done" % (i, w, side),
                      file=sys.stderr, flush=True)

    worse = False
    for w in workloads:
        print("== %s (%d pairs, %d s runs)" % (w, args.pairs, seconds))
        shares = {}
        for side in ("parent", "change"):
            runs = results[w][side]
            shares[side] = (sum(r["failed"] for r in runs),
                            sum(r["attempted"] for r in runs))
        if (shares["parent"][0] * shares["change"][1]
                != shares["change"][0] * shares["parent"][1]):
            print("  failed share differs: parent %d/%d, change %d/%d"
                  % (shares["parent"] + shares["change"]))
            worse = True
        print("  %-12s %-32s %-32s %5s %-10s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "wins", "verdict"))
        for name, m in bounds.items():
            p = [r["metrics"][name]["value"] for r in results[w]["parent"]]
            c = [r["metrics"][name]["value"] for r in results[w]["change"]]
            v = benchstats.pair_verdict(p, c, m["better"], m["bound"])
            pq, cq = benchstats.quartiles(p), benchstats.quartiles(c)
            print("  %-12s %-32s %-32s %5.2f %-10s" % (
                name, "%.5g [%.5g, %.5g]" % (pq[1], pq[0], pq[2]),
                "%.5g [%.5g, %.5g]" % (cq[1], cq[0], cq[2]),
                v["win_fraction"], v["verdict"]))
            worse = worse or v["verdict"] == "worse"
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
