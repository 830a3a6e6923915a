#!/usr/bin/env python3
"""Fairness under increasing adversarial share: sweep malicious_percent over
{0.10, 0.15, 0.20, 0.25, 0.30} across several seeds and report the final
Gini of cumulative rewards plus the honest/malicious reward ratio.

Usage:
    python scripts/sweep_malicious_rates.py [--seeds 0:5] [--out DIR]

The runs are made by `flmech sweep`, and the table is read from the
`sweep_summary.json` it writes. With --out, its long-format per-round
metrics CSV (one row per grid point, seed and round) is kept in DIR;
otherwise it goes to a temporary directory.
"""

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

from flmech.cli import main as cli_main

PERCENTS = [0.10, 0.15, 0.20, 0.25, 0.30]


def print_table(runs):
    print(f"{'m':>5} {'gini(total)':>12} {'honest gini':>12} {'reward ratio':>13}")
    for m in PERCENTS:
        point = [r for r in runs if r["grid"]["malicious_percent"] == m]
        ginis = [r["cumulative_reward_gini"] for r in point]
        honest_ginis = [r["honest_reward_gini"] for r in point]
        ratios = [r["honest_total_reward"] / max(r["malicious_total_reward"], 1e-12)
                  for r in point]
        print(f"{m:5.2f} {statistics.mean(ginis):12.3f} "
              f"{statistics.mean(honest_ginis):12.3f} {statistics.mean(ratios):13.2f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="0:5")
    parser.add_argument("--out", help="keep the long-format CSV here")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as scratch:
        out_dir = Path(args.out or scratch)
        grid = ",".join(str(m) for m in PERCENTS)
        code = cli_main(["sweep", "--grid", f"malicious_percent={grid}",
                         "--seeds", args.seeds, "--out", str(out_dir)])
        if code != 0:
            return code
        print_table(json.loads((out_dir / "sweep_summary.json").read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
