#!/usr/bin/env python3
"""Run the default 100-node / 90-round experiment and print the headline
numbers: detection timeline, reputation separation, reward ratio, fairness.

Usage:
    python scripts/run_default_experiment.py [--seed N] [--out DIR]

The run is made by `flmech simulate`, and the numbers are read from the files
it writes; with --out they are kept in DIR, otherwise in a temporary directory.
"""

import argparse
import contextlib
import csv
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

from flmech.cli import main as cli_main
from flmech.core import Role


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", help="keep the simulate files here")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as scratch:
        out_dir = Path(args.out or scratch)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["simulate", "--seed", str(args.seed), "--out", str(out_dir)])
        if code != 0:
            return code
        s = json.loads((out_dir / "summary.json").read_text())
        # round 0's rows, one per node, tag each node's role
        with (out_dir / "rounds.csv").open(newline="") as fh:
            rows = itertools.islice(csv.DictReader(fh), s["n_nodes"])
            malicious = [row["node_id"] for row in rows if row["role"] == Role.MALICIOUS.value]

    print(f"seed {s['seed']}: {s['n_honest']} honest, {s['n_malicious']} malicious, "
          f"{s['rounds']} rounds")
    detected = s["detected_per_round"]
    print(f"detections per round [0..9]:  {detected[:10]}")
    print(f"detections per round [60..69]: {detected[60:70]}")
    first = s["first_detection_round"]
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
