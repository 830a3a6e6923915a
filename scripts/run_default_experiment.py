#!/usr/bin/env python3
"""Run the default 100-node / 90-round experiment and print the headline
numbers: detection timeline, reputation separation, reward ratio, fairness.

Usage:
    python scripts/run_default_experiment.py [--seed N] [--out DIR]

With --out, the same run is also exported as `flmech simulate` would write
it (per-round CSVs, summary and manifest).
"""

import argparse
from pathlib import Path

from flmech.cli import export_simulation
from flmech.core import Role, SystemConfig
from flmech.engine import run_simulation


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", help="also export CSVs to this directory")
    args = parser.parse_args()

    cfg = SystemConfig()
    result = run_simulation(cfg, seed=args.seed)
    s = result.summary()

    print(f"seed {args.seed}: {s['n_honest']} honest, {s['n_malicious']} malicious, "
          f"{s['rounds']} rounds")
    detected = s["detected_per_round"]
    print(f"detections per round [0..9]:  {detected[:10]}")
    print(f"detections per round [60..69]: {detected[60:70]}")
    first = s["first_detection_round"]
    malicious = [nd.id for nd in result.nodes if nd.role is Role.MALICIOUS]
    print(f"malicious flagged at least once: {sum(1 for m in malicious if m in first)}"
          f"/{len(malicious)}")
    print(f"mean reputation at round 90: honest {s['honest_mean_reputation']:.1f}, "
          f"malicious {s['malicious_mean_reputation']:.1f}")
    ratio = s["honest_total_reward"] / max(s["malicious_total_reward"], 1e-12)
    print(f"total reward: honest {s['honest_total_reward']:.0f}, "
          f"malicious {s['malicious_total_reward']:.0f} (ratio {ratio:.2f}x)")
    print(f"cumulative-reward gini {s['cumulative_reward_gini']:.3f} "
          f"(honest-only {s['honest_reward_gini']:.3f})")
    print(f"publisher stake income {s['publisher_stake_income']:.1f}")

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        export_simulation(result, result.records, out_dir)


if __name__ == "__main__":
    main()
