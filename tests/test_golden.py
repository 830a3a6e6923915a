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

import pytest

from flmech.cli import main

GOLDEN = {
    # the criterion-9 config: n=40, T=20, seed 11, other fields at defaults
    "criterion9": (
        ["--config", "{cfg}"],
        {
            "rounds.csv": "3d869ada863279d5308a0c536a0ec81d349a258e0254258443fb7fb15201d339",
            "metrics.csv": "0eb8e82e26f8e3e821910b4d0ac844544d85ef3405e2323e77cb29187a14cb6b",
            "summary.json": "180b2d5efe4639c0ec020319f98faca805050eecc93c1e502e6c4f39719539da",
        },
    ),
    # `flmech simulate --seed 0` on the built-in default config (n=100, T=90)
    "default_seed0": (
        ["--seed", "0"],
        {
            "rounds.csv": "1c4c76a773f69c5336f888d0fa3c06b37e7942459c5ec9c57d0c6d25b0ddf0ca",
            "metrics.csv": "6c4a66cd3ce87e6a15901ddbede5aea004596ba7ee51c58ff5ac09311c53f926",
            "summary.json": "d98ccfed2045b5332cf7b0058e0b422135a9d6ba35a2764dde3ec398a355f3e2",
        },
    ),
    # the wide_population width: n=2000, T=8, other fields at defaults
    "wide": (
        ["--config", "{wide}"],
        {
            "rounds.csv": "99a472f1785c0ed7c0e45ef462392d612113d6f02e08edf8e80a70d53320a385",
            "metrics.csv": "b40400213afa3212800c13a1c3922e55ca980fbfa4eaa6a5c27006d370e2af29",
            "summary.json": "58cd7b022419d38effdf204cb69d34470bb83ecdfd81b71914f299f826dea791",
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
        "be588a75ef12b0b1cd7f48d075547e0a3f87e5566b947e841b880e07e6ea2ca1",
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
