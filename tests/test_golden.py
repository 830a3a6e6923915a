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
            "rounds.csv": "fcedf3497743acc516a624088225b1baccf758141ab636dc59103350783ed2d2",
            "metrics.csv": "cf02a142f27e020de2e0ced2a8a1d9864cce08fe8a10dc52c4786706a4edf739",
            "summary.json": "e1af714be0a4123020789b60494bf673210a37c244e823040a80801e7e971470",
        },
    ),
    # `flmech simulate --seed 0` on the built-in default config (n=100, T=90)
    "default_seed0": (
        ["--seed", "0"],
        {
            "rounds.csv": "7f22f37e30ecfa83b94373db61a0d3cff7971ee1a2f408a7ad58a48a4597ef77",
            "metrics.csv": "9969b67f7e1981e6968c68df3868084086be614c2a5e0ff6dde2b3ec2e396bb4",
            "summary.json": "2fc4794db135e49f2439639e156e26e97e4af10a7e5ddf0bbfaf14890c80024d",
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
