#!/usr/bin/env python3
"""Steadiness check: run one workload k times and print, for each
end-to-end metric, its median, quartiles and spread against the bound
in BENCHMARK.json.

  python3 perfbench/steady.py --workload battery -k 10
  python3 perfbench/steady.py --workload battery -k 5 --same-seed 3

Each run gets its own seed (1..k) unless --same-seed is given; with one
seed the battery's output digests must all agree. The spread is the
distance between the first and third quartile as a share of the
median, as statistics.quantiles(values, n=4) gives them. Run from the
repository root. Exits non-zero if a run fails, a spread exceeds its
bound, or battery digests differ.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("-k", type=int, default=10)
    ap.add_argument("--same-seed", type=int, default=None)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    digests, shares, ok = [], [], True
    for i in range(args.k):
        seed = args.same_seed if args.same_seed is not None else 1 + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        p = subprocess.run(cmd, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"run {i} (seed {seed}) failed, exit {p.returncode}:\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
            ok = False
            continue
        res = json.loads(lines[-1])
        m = re.search(r"output digest (\S+)", p.stdout)
        if m:
            digests.append(m.group(1))
        shares.append(res["failed"] / res["attempted"])
        print(f"run {i} seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), flush=True)
        for name in values:
            values[name].append(res["metrics"][name]["value"])

    for name, vs in values.items():
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        verdict = "ok" if spread <= bounds[name] else "OVER BOUND"
        if name != "setup_s" and spread > bounds[name]:
            ok = False
        print(f"{name:12s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={100 * spread:.2f}% bound={100 * bounds[name]:.0f}% "
              f"third-of-bound={'yes' if spread < bounds[name] / 3 else 'no'} {verdict}")
    print(f"failed share per run: {sorted(set(shares))}")
    if args.same_seed is not None and digests:
        agree = len(set(digests)) == 1
        print(f"battery digests: {len(digests)} runs, {'all agree' if agree else 'DIFFER'}")
        ok = ok and agree
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
