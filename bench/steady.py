#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree?

Usage (from the repository root):

    python3 bench/steady.py [--workloads paper_sweep,long_horizon] [--runs 5]
                            [--seconds S] [--first-seed 100]

For each workload, runs bench/run.py --trace 0 on seeds first-seed ..
first-seed+runs-1, twice (sets A and B, interleaved), and prints for every
end-to-end metric in BENCHMARK.json the two medians, each set's spread (the
distance between the first and third quartile as a share of the median), the
change of B against A in the metric's worse direction, and whether both stay
within the metric's bound (the spread of `setup_s` is not bounded). It then
runs --trace 1 twice on one seed and checks that every per-layer count
repeats exactly. Exits 1 if anything disagrees.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "bytes")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)}: {result['failed']}/{result['attempted']} failed")
    return result["metrics"]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=5, help="runs per set (at least 2)")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    ok = True
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        sets = {"A": [], "B": []}
        for seed in seeds:
            for name in sets:
                sets[name].append(run(workload, seed, args.seconds, 0))
        print(f"{workload}: {args.runs} runs per set, seeds {seeds.start}..{seeds.stop - 1}, "
              f"{args.seconds:g} s each")
        print(f"  {'metric':<14} {'median A':>12} {'median B':>12} {'spread A':>9} "
              f"{'spread B':>9} {'B vs A':>8} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [m[name]["value"] for m in sets["A"]]
            b = [m[name]["value"] for m in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            spreads = (spread(a), spread(b))
            agree = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            steady = name == "setup_s" or max(spreads) < bound / 3
            verdict = ("agree" if agree else "DISAGREE") + ("" if steady else ", spread over bound/3")
            ok &= agree
            print(f"  {name:<14} {med_a:>12.6g} {med_b:>12.6g} {spreads[0]:>9.4f} "
                  f"{spreads[1]:>9.4f} {worse:>+8.4f} {bound:>6.3f}  {verdict}")

        first, second = (run(workload, args.first_seed, args.seconds, 1) for _ in range(2))
        counts = [m["name"] for m in bench["per_layer"] if m["unit"] in COUNT_UNITS]
        differ = [n for n in counts if first[n]["value"] != second[n]["value"]]
        ok &= not differ
        print(f"  per-layer counts over two traced runs of seed {args.first_seed}: "
              + (f"DIFFER {differ}" if differ else f"all {len(counts)} repeat exactly"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
