"""The experiment scripts run end to end as subprocesses, as their usage lines
describe, and write the files they document."""

import os
import subprocess
import sys
from pathlib import Path

from flmech.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_run_default_experiment_exports_its_run(tmp_path):
    proc = run_script("run_default_experiment.py", "--seed", "0", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("seed 0: 85 honest, 15 malicious, 90 rounds\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "manifest.json", "metrics.csv", "rounds.csv", "summary.json"]


# the script's stdout at seed 0, as the script printed it when it ran the
# simulation itself
DEFAULT_SEED_0_STDOUT = """\
seed 0: 85 honest, 15 malicious, 90 rounds
detections per round [0..9]:  [0, 0, 0, 0, 0, 15, 0, 0, 15, 15]
detections per round [60..69]: [3, 7, 12, 15, 15, 15, 15, 15, 15, 15]
malicious flagged at least once: 15/15
mean reputation at round 90: honest 500.0, malicious 0.0
total reward: honest 109366, malicious 3114 (ratio 35.12x)
cumulative-reward gini 0.148 (honest-only 0.031)
publisher stake income 1496.0
"""


def test_run_default_experiment_prints_its_numbers():
    proc = run_script("run_default_experiment.py", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == DEFAULT_SEED_0_STDOUT


def test_run_default_experiment_out_is_simulate_output(tmp_path):
    proc = run_script("run_default_experiment.py", "--seed", "0", "--out", str(tmp_path / "script"))
    assert proc.returncode == 0, proc.stderr
    assert main(["simulate", "--seed", "0", "--out", str(tmp_path / "cli")]) == 0
    for name in ("rounds.csv", "metrics.csv", "summary.json", "manifest.json"):
        assert (tmp_path / "script" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


def test_sweep_malicious_rates_prints_one_row_per_rate(tmp_path):
    proc = run_script("sweep_malicious_rates.py", "--seeds", "0:1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "manifest.json", "sweep.csv", "sweep_summary.json"]
    lines = proc.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.split()[:1] == ["m"])
    rows = [line.split() for line in lines[header + 1:]]
    assert [row[0] for row in rows] == ["0.10", "0.15", "0.20", "0.25", "0.30"]
    assert all(len(row) == 4 for row in rows)
