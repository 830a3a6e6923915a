"""Golden trace: the exact bytes `flmech simulate` writes for three pinned
runs, the `sweep.csv` and `sweep_summary.json` of one small `flmech sweep`,
and the `contract.json` that `flmech contract-opt` writes for two configs.

Criterion 9 only compares two runs from one checkout; these hashes catch a
change to any output byte across commits. Re-pin them only in a change that
deliberately alters the output contract (RNG layout, summation order, CSV
formatting) and records that in CHANGES.md. Pinned with Python 3.11 and
numpy 2.4.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core import _multiarray_umath as umath

from flmech.cli import main

GOLDEN = {
    # the criterion-9 config: n=40, T=20, seed 11, other fields at defaults
    "criterion9": (
        ["--config", "{cfg}"],
        {
            "rounds.csv": "3d869ada863279d5308a0c536a0ec81d349a258e0254258443fb7fb15201d339",
            "metrics.csv": "0eb8e82e26f8e3e821910b4d0ac844544d85ef3405e2323e77cb29187a14cb6b",
            "summary.json": "70476ea1ee20094b3c6e58c22c4f7168b71481df9d00e4be20fbce38ffe04e30",
        },
    ),
    # `flmech simulate --seed 0` on the built-in default config (n=100, T=90)
    "default_seed0": (
        ["--seed", "0"],
        {
            "rounds.csv": "1c4c76a773f69c5336f888d0fa3c06b37e7942459c5ec9c57d0c6d25b0ddf0ca",
            "metrics.csv": "6c4a66cd3ce87e6a15901ddbede5aea004596ba7ee51c58ff5ac09311c53f926",
            "summary.json": "846b2ad52464a6857f6f1af82a181f6f2f7f1cc0d28dd44b0f8b1b5c80e838bc",
        },
    ),
    # the wide_population width: n=2000, T=8, other fields at defaults
    "wide": (
        ["--config", "{wide}"],
        {
            "rounds.csv": "99a472f1785c0ed7c0e45ef462392d612113d6f02e08edf8e80a70d53320a385",
            "metrics.csv": "b40400213afa3212800c13a1c3922e55ca980fbfa4eaa6a5c27006d370e2af29",
            "summary.json": "d04f012acbade23a894fb6dbc6405909b758e413a1ab187f9cb9fc0af6653fc4",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_output_matches_golden_hashes(name, tmp_path):
    cfg_path = tmp_path / "criterion9.cfg"
    cfg_path.write_text("n_nodes = 40\nrounds = 20\nseed = 11\n")
    wide_path = tmp_path / "wide.cfg"
    wide_path.write_text("n_nodes = 2000\nrounds = 8\n")
    args, expected = GOLDEN[name]
    out = tmp_path / "out"
    argv = ["simulate", *(a.format(cfg=cfg_path, wide=wide_path) for a in args),
            "--out", str(out)]
    assert main(argv) == 0
    actual = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in expected}
    assert actual == expected


SWEEP_GOLDEN = {
    "sweep.csv": "5a605f91133209776e0e1beba79fdc66799483f94eabd46c0597681f60a198b1",
    "sweep_summary.json": "17fff55e0ac83a780799735c6a810ab4dc51051512d99c5720782d0d2a233361",
}


def test_sweep_output_matches_golden_hashes(tmp_path):
    # two grid points x two seeds of a 30-node, 12-round config
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("n_nodes = 30\nrounds = 12\nmalicious_percent = 0.2\n"
                        "eta_switch = 3\nseed = 7\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--grid", "malicious_percent=0.1,0.3",
                 "--seeds", "0:2", "--out", str(out)]) == 0
    actual = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in SWEEP_GOLDEN}
    assert actual == SWEEP_GOLDEN


CONTRACT_GOLDEN = {
    # built-in defaults: the solver's optimum sits at the c_max corner
    "default": (
        "",
        "1b81db514cb9313349a876820bc46221dceb8ed53706025dd1871afe01025046",
    ),
    # interior optimum, where the grid oracle's answer lies inside the grid
    "reward_pool_1800": (
        "reward_pool = 1800\n",
        "96c02560bfe4c688111148190fc43e03035fdf0d9e262762b2bba4f543fecbf6",
    ),
}


@pytest.mark.parametrize("name", sorted(CONTRACT_GOLDEN))
def test_contract_opt_output_matches_golden_hash(name, tmp_path):
    text, expected = CONTRACT_GOLDEN[name]
    cfg_path = tmp_path / "contract.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["contract-opt", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "contract.json").read_bytes()).hexdigest() == expected


# numpy's dispatch levels this host has, lowest first: numpy picks each
# vector kernel for the highest level that is enabled
HOST_LEVELS = [level for level in umath.__cpu_dispatch__ if umath.__cpu_features__.get(level)]
# `wide` is the one golden above metrics.exact_sum's cutoff, whose extraction
# sums by numpy's vector kernels
KERNEL_GOLDENS = [*(f"test_simulate_output_matches_golden_hashes[{name}]"
                    for name in sorted(GOLDEN)),
                  *(f"test_contract_opt_output_matches_golden_hash[{name}]"
                    for name in sorted(CONTRACT_GOLDEN))]


@pytest.mark.skipif(not HOST_LEVELS, reason="numpy has no dispatch level on this host")
@pytest.mark.parametrize("level", HOST_LEVELS)
def test_goldens_hold_with_each_numpy_dispatch_level_disabled(level):
    # the hashes were pinned on one CPU and must hold on any other: with this
    # level and every level above it disabled, numpy runs the kernels of the
    # level below, as on a host without this level
    disabled = HOST_LEVELS[HOST_LEVELS.index(level):]
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    # these tests draw no Hypothesis examples, and its plugin takes 1.4 s to load
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-p", "no:hypothesispytest",
                           *(f"{__file__}::{test}" for test in KERNEL_GOLDENS)],
                          capture_output=True, text=True, env=env, cwd=root, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:]
