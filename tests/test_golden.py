"""Golden trace: the exact bytes `flmech simulate` writes for two pinned runs,
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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_output_matches_golden_hashes(name, tmp_path):
    cfg_path = tmp_path / "criterion9.cfg"
    cfg_path.write_text("n_nodes = 40\nrounds = 20\nseed = 11\n")
    args, expected = GOLDEN[name]
    out = tmp_path / "out"
    argv = ["simulate", *(a.format(cfg=cfg_path) for a in args), "--out", str(out)]
    assert main(argv) == 0
    actual = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in expected}
    assert actual == expected


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
