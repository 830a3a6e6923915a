"""CLI contract: file schemas, exit codes, determinism, verify checks."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flmech import cli, committee, engine
from flmech.cli import METRICS_COLUMNS, ROUNDS_COLUMNS, main
from flmech.core import (
    ConfigError, Role, RoundRecord, SystemConfig, _format_schedule, _parse_value, config_to_dict,
    validate_config,
)
from flmech.engine import new_world
from test_oracles import configs

FAST_CONFIG = (
    "n_nodes = 30\n"
    "rounds = 12\n"
    "malicious_percent = 0.2\n"
    "eta_switch = 3\n"
    "seed = 7\n")


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CONFIG)
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def rehash(out, *names):
    # keep the hash check quiet about an edit to these files so the other checks run
    manifest = json.loads((out / "manifest.json").read_text())
    for name in names:
        manifest["files"][name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))


def edit_first_row(path, **cells):
    lines = path.read_text().splitlines()
    header, row = lines[0].split(","), lines[1].split(",")
    for column, value in cells.items():
        row[header.index(column)] = value
    lines[1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def test_simulate_writes_expected_files(fast_config, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(fast_config), "--out", str(out)]) == 0
    for name in ("rounds.csv", "metrics.csv", "summary.json", "manifest.json"):
        assert (out / name).exists()

    rounds = read_rows(out / "rounds.csv")
    assert rounds[0] == ROUNDS_COLUMNS
    assert len(rounds) == 1 + 30 * 12
    metrics = read_rows(out / "metrics.csv")
    assert metrics[0] == METRICS_COLUMNS
    assert len(metrics) == 1 + 12

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert set(manifest["files"]) == {"rounds.csv", "metrics.csv", "summary.json"}
    assert manifest["config"]["n_nodes"] == 30
    assert manifest["seeds"] == [7]


def test_simulate_seed_flag_is_the_manifest_seed(fast_config, tmp_path):
    out = tmp_path / "s5"
    assert main(["simulate", "--config", str(fast_config), "--seed", "5", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 5 and manifest["seeds"] == [5]


# the cells that csv.writer and repr must agree on, beside any float
EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 2.2250738585072014e-308,
               1e300]


@st.composite
def round_records(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
    columns = [np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=float)
               for _ in range(6)]
    ids = st.sets(st.integers(min_value=0, max_value=n - 1)).map(sorted)
    roles = draw(st.lists(st.sampled_from([Role.HONEST.value, Role.MALICIOUS.value]),
                          min_size=n, max_size=n))
    rec = RoundRecord(
        round=draw(st.integers(min_value=0, max_value=10**6)), committee=draw(ids),
        undersized_committee=False, contributions=columns[0], completion_times=columns[1],
        qualities=columns[2], reputation_after=columns[3], penalties=columns[4],
        rewards=columns[5], detected=draw(ids), timeouts=[], jain_fairness=0.0, gini=0.0,
        total_paid=0.0)
    return rec, roles


@settings(max_examples=200, deadline=None)
@given(case=round_records())
def test_round_text_is_what_csv_writer_writes(case):
    rec, roles = case
    n = len(roles)
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(
        [rec.round, i, roles[i], *(col.tolist()[i] for col in (
            rec.contributions, rec.completion_times, rec.qualities, rec.reputation_after,
            rec.penalties, rec.rewards)),
         int(i in rec.committee), int(i in rec.detected)]
        for i in range(n))
    assert cli._round_text(rec, [str(i) for i in range(n)], roles) == buf.getvalue()


# VmHWM is the peak RSS of this process's own address space; ru_maxrss would
# also count the parent's, which a child spawned by vfork inherits at exec.
PEAK_RSS_CODE = """
import re, sys
from pathlib import Path
from flmech.cli import main
assert main(sys.argv[1:]) == 0
print(re.search(r"VmHWM:\\s*(\\d+) kB", Path("/proc/self/status").read_text()).group(1))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_simulate_memory_does_not_grow_with_rounds(tmp_path):
    # the round trace is streamed to disk, so 16x the rounds at n=50 (the
    # trace would hold about 12 MB at T=1440) leaves the peak RSS where it was
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    peaks_kb = {}
    for rounds in (90, 1440):
        cfg = tmp_path / f"t{rounds}.cfg"
        cfg.write_text(f"n_nodes = 50\nrounds = {rounds}\n")
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_CODE, "simulate", "--config", str(cfg),
             "--out", str(tmp_path / f"t{rounds}")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        peaks_kb[rounds] = int(proc.stdout.splitlines()[-1])
    assert peaks_kb[1440] - peaks_kb[90] < 4 * 1024, peaks_kb


def test_manifest_columns_name_only_files_in_the_directory(fast_config, tmp_path):
    runs = {
        "simulate": ["simulate", "--config", str(fast_config)],
        "sweep": ["sweep", "--config", str(fast_config), "--grid", "rounds=4"],
        "contract-opt": ["contract-opt"],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == name
        if name == "simulate":
            assert manifest["columns"] == {"rounds.csv": ROUNDS_COLUMNS,
                                           "metrics.csv": METRICS_COLUMNS}
            assert set(manifest["columns"]) <= set(manifest["files"])
        else:
            assert "columns" not in manifest


def test_sweep_manifest_config_seed_is_the_first_run_seed(fast_config, tmp_path):
    # the base config's seed (7) names no run of the sweep
    out = tmp_path / "sweep_seeds"
    assert main(["sweep", "--config", str(fast_config), "--grid", "rounds=4",
                 "--seeds", "0,1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [0, 1]
    assert manifest["config"]["seed"] == 0


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "nope.cfg" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("committee_size = 50\nn_nodes = 10\n")
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "committee size exceeds population" in capsys.readouterr().err


def test_same_seed_identical_hashes(fast_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(fast_config), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(fast_config), "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())["files"]
    m2 = json.loads((out2 / "manifest.json").read_text())["files"]
    assert m1 == m2
    for name in m1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_names_no_path_of_the_run(tmp_path):
    # one run, with its config file and its output at two paths each
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "fast.cfg").write_text(FAST_CONFIG)
        assert main(["simulate", "--config", str(tmp_path / name / "fast.cfg"), "--seed", "0",
                     "--out", str(tmp_path / name / "out")]) == 0
    assert ((tmp_path / "a" / "out" / "manifest.json").read_bytes()
            == (tmp_path / "b" / "out" / "manifest.json").read_bytes())


def test_env_var_sets_out_dir(fast_config, tmp_path, monkeypatch):
    env_out = tmp_path / "envout"
    monkeypatch.setenv("FLMECH_OUT", str(env_out))
    assert main(["simulate", "--config", str(fast_config)]) == 0
    assert (env_out / "manifest.json").exists()


def test_sweep_grid(fast_config, tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", str(fast_config),
               "--grid", "malicious_percent=0.1,0.2",
               "--seeds", "0,1", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out / "sweep.csv")
    assert rows[0] == ["malicious_percent", "seed"] + METRICS_COLUMNS
    assert len(rows) == 1 + 2 * 2 * 12  # grid x seeds x rounds
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["runs"] == 4


def test_sweep_grid_values_parse_like_config_file(fast_config, tmp_path):
    # grid tokens take the config file's typed parser: ints for int fields,
    # none, floats for float fields even when written as integers, and one
    # start:end:pattern phase per attack_schedule value, since the grid splits
    # on commas; a schedule cell is written back in that grammar
    out = tmp_path / "sweep_typed"
    rc = main(["sweep", "--config", str(fast_config),
               "--grid", "committee_size=3,5",
               "--grid", "t_max=none,1.0",
               "--grid", "reward_pool=600",
               "--grid", "attack_schedule=0:12:zero,0:12:false_high",
               "--seeds", "0", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid"] == {"attack_schedule": [[[0, 12, "zero"]], [[0, 12, "false_high"]]],
                                "committee_size": [3, 5],
                                "reward_pool": [600.0], "t_max": [None, 1.0]}
    rows = read_rows(out / "sweep.csv")
    assert rows[0][:4] == ["attack_schedule", "committee_size", "reward_pool", "t_max"]
    assert len(rows) == 1 + 8 * 12
    schedules = ("0:12:zero", "0:12:false_high")
    assert {tuple(r[:4]) for r in rows[1:]} == {
        (schedule, size, "600.0", t_max)
        for schedule in schedules for size in ("3", "5") for t_max in ("", "1.0")}
    assert [_parse_value("attack_schedule", cell) for cell in schedules] == [
        [(0, 12, "zero")], [(0, 12, "false_high")]]


def test_sweep_empty_grid_single_run(fast_config, tmp_path):
    out = tmp_path / "sweep0"
    assert main(["sweep", "--config", str(fast_config), "--seeds", "3",
                 "--out", str(out)]) == 0
    rows = read_rows(out / "sweep.csv")
    assert len(rows) == 1 + 12


def test_sweep_rejects_unknown_key_before_running(fast_config, tmp_path, capsys):
    out = tmp_path / "sweepbad"
    rc = main(["sweep", "--config", str(fast_config),
               "--grid", "not_a_field=1,2", "--out", str(out)])
    assert rc == 2
    assert "unknown grid key 'not_a_field'" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_checks_every_grid_point_before_running(tmp_path, monkeypatch, capsys):
    # the base config is valid; the rounds=30 point cuts the 90-round schedule short
    cfg = tmp_path / "sched.cfg"
    cfg.write_text("n_nodes = 30\nattack_schedule = 0:5:false_high, 5:90:zero\n")
    calls = []

    def counted_world(*args, **kwargs):
        calls.append(args)
        return new_world(*args, **kwargs)

    monkeypatch.setattr(cli, "new_world", counted_world)
    out = tmp_path / "sweep_sched"
    rc = main(["sweep", "--config", str(cfg), "--grid", "rounds=90,30",
               "--seeds", "0:2", "--out", str(out)])
    assert rc == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(out.iterdir())


def test_seed_range_syntax(fast_config, tmp_path):
    out = tmp_path / "range"
    assert main(["sweep", "--config", str(fast_config), "--seeds", "0:3",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [0, 1, 2]


def test_contract_opt_json(capsys):
    assert main(["contract-opt"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["c_star"] == pytest.approx(10.0)
    assert doc["r_star"] == pytest.approx(25.0, abs=1e-6)
    assert doc["ir_satisfaction_rate"] == 1.0
    assert doc["min_utility"] > 0.0
    assert doc["closed_form"]["c_star"] == pytest.approx(10.0)
    assert "grid_gap" in doc["diagnostics"]


def test_contract_opt_runs_on_a_config_of_2_pow_53_rounds(tmp_path, capsys):
    # contract-opt does not read rounds, and the config's attack schedule is
    # checked as its phase table, so a long run's config is as quick to solve
    assert main(["contract-opt"]) == 0
    default = capsys.readouterr().out
    cfg = tmp_path / "long.cfg"
    cfg.write_text(f"rounds = {2**53}\n")
    assert main(["contract-opt", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == default


def test_contract_opt_writes_only_when_an_out_dir_is_named(tmp_path, monkeypatch, capsys):
    # neither --out nor $FLMECH_OUT: the report is printed and nothing written
    monkeypatch.delenv("FLMECH_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["contract-opt"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert list(tmp_path.iterdir()) == []
    env_out = tmp_path / "envout"
    monkeypatch.setenv("FLMECH_OUT", str(env_out))
    assert main(["contract-opt"]) == 0
    assert json.loads(capsys.readouterr().out) == printed
    assert json.loads((env_out / "contract.json").read_text()) == printed
    assert json.loads((env_out / "manifest.json").read_text())["subcommand"] == "contract-opt"


def test_contract_opt_optimum_at_c_max_with_small_stake(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("reward_pool = 1427.5165286701417\n"
                   "contribution_bonus = 67.73715247317494\n"
                   "gamma_c = 2.345058466210593\n"
                   "c_min = 2.8061763599319045\n"
                   "c_max = 15.992829497614988\n"
                   "history_decay = 0.684698179985948\n")
    out = tmp_path / "out"
    assert main(["contract-opt", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["c_star"] == 15.992829497614988
    assert doc["s_star"] > 0.0
    assert doc["diagnostics"]["grid_gap"] <= 1e-3
    # the manifest records the config's seed, the only one there is
    assert json.loads((out / "manifest.json").read_text())["seeds"] == [42]


def test_contract_opt_degenerate_stake_is_one_line_error(tmp_path, capsys):
    # from reward_pool / n_nodes of about 18.7 up the solver's stake equation
    # has no positive solution: an error line and exit 1, never a traceback
    # or a NaN stake
    for pool in (2400, 4800):
        cfg = tmp_path / f"pool{pool}.cfg"
        cfg.write_text(f"reward_pool = {pool}\nn_nodes = 100\n")
        assert main(["contract-opt", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error: stake equation denominator") and "\n" not in err


def test_verify_fresh_run_passes(fast_config, tmp_path, capsys):
    out = tmp_path / "v"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    assert main(["verify", "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "PASS reward_conservation_per_round" in report
    assert "FAIL" not in report
    # timeouts, a whole stake taken at a node's first flag, and no stake taken:
    # verify replays the publisher's stake income of each
    for extra in ["t_max = 0.8", "stake_penalty_factor = 1.0", "stake_penalty_factor = 0.0"]:
        fast_config.write_text(FAST_CONFIG + extra + "\n")
        out = tmp_path / extra
        assert main(["simulate", "--config", str(fast_config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 0
        assert "FAIL" not in capsys.readouterr().out


def test_verify_commits_read_only_columns_each_round(fast_config, tmp_path, monkeypatch):
    out = tmp_path / "ro"
    assert main(["simulate", "--config", str(fast_config), "--out", str(out)]) == 0
    tally_round, commits = engine.WorldState.tally_round, []

    def checked(world, nodes, members, rewards, detected, stake_deducted):
        tally_round(world, nodes, members, rewards, detected, stake_deducted)
        commits.append([name for name, col in vars(world.nodes).items() if col.flags.writeable])

    monkeypatch.setattr(engine.WorldState, "tally_round", checked)
    assert main(["verify", "--out", str(out)]) == 0
    assert commits == [[]] * 12


def test_each_command_ticks_the_cooldowns_only_in_the_round_commit(fast_config, tmp_path,
                                                                   monkeypatch):
    # simulate and verify put a round's committee on cooldown only through
    # WorldState.tally_round, once a round
    update_cooldowns, callers = committee.update_cooldowns, []

    def recorded(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return update_cooldowns(*args)

    monkeypatch.setattr(committee, "update_cooldowns", recorded)
    out = tmp_path / "owner"
    assert main(["simulate", "--config", str(fast_config), "--out", str(out)]) == 0
    assert callers == ["tally_round"] * 12
    assert main(["verify", "--out", str(out)]) == 0
    assert callers == ["tally_round"] * 24


def test_verify_detects_conservation_violation(fast_config, tmp_path, capsys):
    out = tmp_path / "vc"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    reward = ROUNDS_COLUMNS.index("reward")
    paid = [float(row[reward]) for row in read_rows(out / "rounds.csv")[1:31]]  # round 0
    # node 0's reward far over the pool plus committee bonuses (1400), then
    # raised so that round 0 pays 1400 * (1 + 1e-6): a millionth over, which
    # is far more than the rounding verify allows for
    for cell in ["99999.0", repr(paid[0] + 1400.0 * (1 + 1e-6) - math.fsum(paid))]:
        edit_first_row(out / "rounds.csv", reward=cell)
        rehash(out, "rounds.csv")
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 1
        report = capsys.readouterr().out
        assert "FAIL reward_conservation_per_round" in report


def test_verify_fails_nan_reward_and_reputation(fast_config, tmp_path, capsys):
    out = tmp_path / "vn"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    edit_first_row(out / "rounds.csv", reward="nan", reputation="nan")
    rehash(out, "rounds.csv")
    assert main(["verify", "--out", str(out)]) == 1
    report = capsys.readouterr().out
    assert "FAIL reward_conservation_per_round" in report
    assert "FAIL reputation_within_caps" in report


def test_verify_fails_nan_in_columns_no_other_check_reads(fast_config, tmp_path, capsys):
    out = tmp_path / "vf"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    edit_first_row(out / "rounds.csv", contribution="nan", penalty="nan")
    edit_first_row(out / "metrics.csv", jain="nan")
    rehash(out, "rounds.csv", "metrics.csv")
    assert main(["verify", "--out", str(out)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL numeric_cells_finite"]


@pytest.mark.parametrize("cell, failed", [("300.0", False), ("300.0000000001", True)])
def test_verify_holds_reputations_to_the_cap_exactly(fast_config, tmp_path, capsys, cell,
                                                      failed):
    # round 0's cap is r_max_early = 300; the edit fails the metrics check too
    out = tmp_path / "vr"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    edit_first_row(out / "rounds.csv", reputation=cell)
    rehash(out, "rounds.csv")
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    report = capsys.readouterr().out
    assert ("FAIL reputation_within_caps" in report) is failed
    assert "FAIL metrics_recomputed_from_rounds" in report


def config_text(cfg: SystemConfig) -> str:
    """A config file that loads as `cfg`."""
    lines = []
    for key, value in config_to_dict(cfg).items():
        if key == "attack_schedule" and value is not None:
            value = _format_schedule(value)
        lines.append(f"{key} = {'none' if value is None else value}")
    return "\n".join(lines) + "\n"


CAPS = st.floats(min_value=0.0, max_value=500.0)


@settings(max_examples=150, deadline=None)
@given(cfg=configs(), caps=st.tuples(CAPS, CAPS))
# a falling cap left a node flagged at the switch round above the new cap
@example(cfg=SystemConfig(n_nodes=12, rounds=12, r_max_switch_round=4, seed=0),
         caps=(200.0, 100.0))
# subnormal weights overflowed the committee's sampling keys
@example(cfg=SystemConfig(n_nodes=12, rounds=10, gamma=1.0, eta_switch=2, committee_size=3),
         caps=(1e-320, 1e-320))
# a round's numpy sum of pay went over the bound by more than 1e-9, one ulp
# of the bound, at a pool of 1e9
@example(cfg=SystemConfig(n_nodes=20, rounds=40, malicious_percent=0.0, reward_pool=1e9, seed=0),
         caps=(300.0, 500.0))
# without committee bonuses, rounds 27 and 29 pay an exact total one ulp over
# the bound of 1e9, so no fixed slack under that ulp would pass them
@example(cfg=SystemConfig(n_nodes=50, rounds=30, malicious_percent=0.0, reward_pool=1e9,
                          committee_bonus=0.0, seed=0),
         caps=(300.0, 500.0))
def test_every_accepted_config_runs_and_passes_verify(cfg, caps):
    """Either validate_config rejects a config, or simulate and verify both
    exit 0 on it. The two caps are drawn independently, every other field as
    test_oracles draws it."""
    cfg = replace(cfg, r_max_early=caps[0], r_max_late=caps[1])
    try:
        validate_config(cfg)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(config_text(cfg))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["simulate", "--config", str(path), "--out", f"{tmp}/run"]) == 0
            assert main(["verify", "--out", f"{tmp}/run"]) == 0, out.getvalue()


def test_verify_passes_without_cooldown(tmp_path, capsys):
    # with cooldown_period = 0 a node may sit on consecutive committees
    cfg = tmp_path / "cd0.cfg"
    cfg.write_text("n_nodes = 10\nrounds = 12\ncooldown_period = 0\n")
    out = tmp_path / "cd0"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["verify", "--out", str(out)]) == 0
    assert "PASS committee_gap_exceeds_cooldown (> 0)" in capsys.readouterr().out


def test_verify_detects_committee_gap_within_cooldown(fast_config, tmp_path, capsys):
    out = tmp_path / "vg"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    path = out / "rounds.csv"
    rows = read_rows(path)
    flag = ROUNDS_COLUMNS.index("committee")
    t, node = next((int(r[0]), r[1]) for r in rows[1:] if r[flag] == "1")
    # the same node back on a committee cooldown_period (3) rounds later
    for r in rows[1:]:
        if int(r[0]) == t + 3 and r[1] == node:
            r[flag] = "1"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    rehash(out, "rounds.csv")
    assert main(["verify", "--out", str(out)]) == 1
    assert "FAIL committee_gap_exceeds_cooldown (> 3)" in capsys.readouterr().out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verify_gap_verdict_is_the_last_member_rule(data):
    """verify's committee gap verdict, on committee flags written into a run,
    is the rule restated: no node sits on two committees `cooldown_period` or
    fewer rounds apart."""
    n, rounds = data.draw(st.integers(1, 8), label="n"), data.draw(st.integers(1, 12), label="T")
    cooldown = data.draw(st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(rounds + 1, 2**53)),
                         label="cooldown_period")
    seats = data.draw(st.sets(st.tuples(st.integers(0, rounds - 1), st.integers(0, n - 1)),
                              max_size=2 * rounds), label="seats")
    last_member, holds = {}, True
    for t, node in sorted(seats):
        if node in last_member:
            holds &= t - last_member[node] > cooldown
        last_member[node] = t
    cfg = SystemConfig(n_nodes=n, rounds=rounds, committee_size=1, cooldown_period=cooldown,
                       eta_switch=0)
    flag = ROUNDS_COLUMNS.index("committee")
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "run.cfg").write_text(config_text(cfg))
        out, report = Path(tmp) / "run", io.StringIO()
        with contextlib.redirect_stdout(report):
            assert main(["simulate", "--config", f"{tmp}/run.cfg", "--out", str(out)]) == 0
            rows = read_rows(out / "rounds.csv")
            for r in rows[1:]:
                r[flag] = "1" if (int(r[0]), int(r[1])) in seats else "0"
            with (out / "rounds.csv").open("w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            rehash(out, "rounds.csv")
            main(["verify", "--out", str(out)])
    verdict = "PASS" if holds else "FAIL"
    assert f"{verdict} committee_gap_exceeds_cooldown (> {cooldown})" in report.getvalue()


def test_verify_detects_hash_mismatch(fast_config, tmp_path, capsys):
    out = tmp_path / "vh"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    (out / "summary.json").write_text("{}")
    assert main(["verify", "--out", str(out)]) == 1
    assert "FAIL file_hashes_match_manifest" in capsys.readouterr().out


@pytest.mark.parametrize("edit, detail", [
    (lambda files, outside: files.clear(),
     "metrics.csv not hashed, rounds.csv not hashed, summary.json not hashed"),
    (lambda files, outside: files.pop("summary.json"), "summary.json not hashed"),
    # a file outside the run directory with its true hash, and no file at
    # all: neither is read
    (lambda files, outside: files.update({
        "../x": hashlib.sha256(outside.read_bytes()).hexdigest(), "absent": "0" * 64}),
     "../x not a run file, absent not a run file"),
], ids=["no files", "summary.json not hashed", "names outside the run"])
def test_verify_manifest_hashes_exactly_the_run_files(fast_config, tmp_path, capsys, edit,
                                                      detail):
    out = tmp_path / "run"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    (tmp_path / "x").write_text("outside the run\n")
    manifest = json.loads((out / "manifest.json").read_text())
    edit(manifest["files"], tmp_path / "x")
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    report = capsys.readouterr().out.splitlines()
    assert [line for line in report if line.startswith("FAIL")] == [
        f"FAIL file_hashes_match_manifest ({detail})"]


def test_verify_truncated_csv_reports_corrupt(fast_config, tmp_path, capsys):
    out = tmp_path / "vt"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    lines = (out / "rounds.csv").read_text().splitlines()
    truncated = "\n".join(lines[:5] + [lines[5][: len(lines[5]) // 2]])
    (out / "rounds.csv").write_text(truncated)
    rehash(out, "rounds.csv")
    assert main(["verify", "--out", str(out)]) == 1
    assert "corrupt file" in capsys.readouterr().err


@pytest.mark.parametrize("name, columns", [
    ("rounds.csv", [*ROUNDS_COLUMNS[:-1], "flagged"]),
    ("metrics.csv", METRICS_COLUMNS[:-1]),
], ids=["rounds.csv column renamed", "metrics.csv column missing"])
def test_verify_rejects_a_header_other_than_the_schema(fast_config, tmp_path, capsys, name,
                                                       columns):
    out = tmp_path / "hd"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    lines = (out / name).read_text().splitlines(keepends=True)
    (out / name).write_text(",".join(columns) + "\n" + "".join(lines[1:]))
    rehash(out, name)
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    schema = ROUNDS_COLUMNS if name == "rounds.csv" else METRICS_COLUMNS
    assert capsys.readouterr().err == (f"error: corrupt file (header is not {','.join(schema)}):"
                                       f" {out / name}\n")


def _swap(first, second):
    # swap file lines `first` and `second` (line 1 is the header)
    def edit(lines):
        lines[first - 1], lines[second - 1] = lines[second - 1], lines[first - 1]
        return lines
    return edit


@pytest.mark.parametrize("name, edit, detail", [
    # every row that is left parses and passes the other checks
    ("rounds.csv", lambda lines: lines[: 1 + (len(lines) - 1) // 2],
     "180 rounds.csv rows, 12 metrics.csv rows"),
    ("rounds.csv", _swap(7, 40), "360 rounds.csv rows, 12 metrics.csv rows, out of order"),
    ("metrics.csv", _swap(2, 3), "360 rounds.csv rows, 12 metrics.csv rows, out of order"),
    # every round after round 5 starts one row early
    ("rounds.csv", lambda lines: lines[:1 + 5 * 30 + 13] + lines[2 + 5 * 30 + 13:],
     "359 rounds.csv rows, 12 metrics.csv rows, out of order"),
    # round 5 is not whole, but its 13 rows are in order
    ("rounds.csv", lambda lines: lines[:1 + 163], "163 rounds.csv rows, 12 metrics.csv rows"),
    # a round cell beyond the double range is finite, an int out of order
    ("metrics.csv", lambda lines: [lines[0], "1" + "0" * 399 + lines[1][1:], *lines[2:]],
     "360 rounds.csv rows, 12 metrics.csv rows, out of order"),
], ids=["rounds.csv cut at a row boundary", "rounds.csv rows swapped",
        "metrics.csv rows swapped", "rounds.csv middle row deleted", "rounds.csv cut mid-round",
        "metrics.csv round of 400 digits"])
def test_verify_fails_rows_that_do_not_cover_the_run(fast_config, tmp_path, capsys,
                                                     name, edit, detail):
    out = tmp_path / "vr"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    lines = (out / name).read_text().splitlines(keepends=True)
    (out / name).write_text("".join(edit(lines)))
    rehash(out, name)
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL rows_cover_every_round_and_node (12 rounds x 30 nodes) ({detail})"]


def test_verify_compares_metrics_of_whole_rounds_before_rounds_csv_goes_out_of_order(
        fast_config, tmp_path, capsys):
    # rounds.csv goes out of order at round 5, whose nodes 0 and 1 swap rows;
    # rounds 0-4 are whole and in order, so their metrics.csv rows are still
    # recomputed, and round 2's edited jain fails
    out = tmp_path / "vo"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    lines = (out / "rounds.csv").read_text().splitlines(keepends=True)
    (out / "rounds.csv").write_text("".join(_swap(2 + 5 * 30, 3 + 5 * 30)(lines)))
    lines = (out / "metrics.csv").read_text().splitlines(keepends=True)
    cells = lines[3].split(",")
    assert cells[0] == "2"
    cells[METRICS_COLUMNS.index("jain")] = "0.123"
    lines[3] = ",".join(cells)
    (out / "metrics.csv").write_text("".join(lines))
    rehash(out, "rounds.csv", "metrics.csv")
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL metrics_recomputed_from_rounds (round 2: jain)",
                      "FAIL rows_cover_every_round_and_node (12 rounds x 30 nodes)"
                      " (360 rounds.csv rows, 12 metrics.csv rows, out of order)"]


QUALITY, REPUTATION, PENALTY, COMMITTEE, DETECTED = (
    ROUNDS_COLUMNS.index(c) for c in ("quality", "reputation", "penalty", "committee", "detected"))


def _wrong_quality(rows):
    rows[1][QUALITY] = "0.99"


def _penalty_without_detection(rows):
    next(r for r in rows[1:] if r[DETECTED] == "0")[PENALTY] = "1.0"


def _penalty_over_half_reputation(rows):
    # the first detected row's penalty raised to the node's whole reputation
    # of the round before (30 rows up)
    k = next(k for k, r in enumerate(rows) if r[DETECTED] == "1")
    assert float(rows[k - 30][REPUTATION]) > 0.0
    rows[k][PENALTY] = rows[k - 30][REPUTATION]


def _extra_committee_member(rows):
    # a sixth member for a full committee, on a node that sat on no committee
    # within cooldown_period (3) rounds of it, so every gap still passes
    member_rounds, size = {}, {}
    for r in rows[1:]:
        if r[COMMITTEE] == "1":
            member_rounds.setdefault(r[1], []).append(int(r[0]))
            size[r[0]] = size.get(r[0], 0) + 1
    next(r for r in rows[1:] if r[COMMITTEE] == "0" and size.get(r[0]) == 5
         and all(abs(int(r[0]) - s) > 3 for s in member_rounds.get(r[1], [])))[COMMITTEE] = "1"


@pytest.mark.parametrize("edit, check", [
    # each edit keeps every cell finite and passes all checks that read no other row
    (_wrong_quality, "quality_is_sigmoid_of_contribution"),
    (_penalty_without_detection, "penalty_only_if_detected_at_most_half_reputation"),
    (_penalty_over_half_reputation, "penalty_only_if_detected_at_most_half_reputation"),
    (_extra_committee_member, "committee_within_size (<= 5)"),
], ids=["quality of row 1 set to 0.99", "penalty on an undetected row",
        "penalty above half the previous reputation", "sixth committee member"])
def test_verify_fails_row_that_disagrees_with_the_mechanism(fast_config, tmp_path, capsys,
                                                           edit, check):
    out = tmp_path / "vm"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    rows = read_rows(out / "rounds.csv")
    edit(rows)
    with (out / "rounds.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    rehash(out, "rounds.csv")
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL {check}"]


def test_verify_holds_penalties_to_the_reputations_of_a_round_with_a_nan(fast_config, tmp_path,
                                                                         capsys):
    # Round t holds a NaN reward, so it fails numeric_cells_finite, but it is
    # replayed all the same: a penalty in round t + 1 is held to half the
    # node's reputation after round t, which here is below half of round t - 1's
    out = tmp_path / "vnan"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    rows = read_rows(out / "rounds.csv")
    reward = ROUNDS_COLUMNS.index("reward")

    def row(t, node):
        return rows[1 + 30 * t + node]

    t, node = next((t, node) for t in range(1, 11) for node in range(30)
                   if 0.0 < float(row(t, node)[REPUTATION]) < float(row(t - 1, node)[REPUTATION]))
    before, after = float(row(t - 1, node)[REPUTATION]), float(row(t, node)[REPUTATION])
    penalty = (before + after) / 4.0
    assert after / 2.0 < penalty <= before / 2.0
    row(t, node)[reward] = "nan"
    row(t + 1, node)[DETECTED], row(t + 1, node)[PENALTY] = "1", repr(penalty)
    with (out / "rounds.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    rehash(out, "rounds.csv")
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    report = capsys.readouterr().out
    assert "FAIL numeric_cells_finite" in report
    assert "FAIL penalty_only_if_detected_at_most_half_reputation" in report


@pytest.mark.parametrize("column, cell", [
    *((column, "7" if column == "detected_count" else "0.123") for column in METRICS_COLUMNS[1:]),
    # an int cell beyond the double range is finite, and compared as an int
    ("detected_count", "1" + "0" * 399),
], ids=[*METRICS_COLUMNS[1:], "detected_count of 400 digits"])
def test_verify_recomputes_each_metrics_column(fast_config, tmp_path, capsys, column, cell):
    # a finite value of the column's type that the round's rounds.csv rows do not imply
    out = tmp_path / "vx"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    edit_first_row(out / "metrics.csv", **{column: cell})
    rehash(out, "metrics.csv")
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL metrics_recomputed_from_rounds (round 0: {column})"]


def test_verify_recomputes_metrics_over_role_tags_it_knows(fast_config, tmp_path, capsys):
    # a node tagged neither honest nor malicious counts in neither role's mean,
    # so the honest means no longer match metrics.csv
    out = tmp_path / "vr"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    rows = read_rows(out / "rounds.csv")
    assert rows[1][2] == "honest"
    rows[1][2] = "bogus"
    with (out / "rounds.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    rehash(out, "rounds.csv")
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL metrics_recomputed_from_rounds (round 0: honest_mean_rep)"]


def _set_cells(column, cells):
    # set `column` of rounds.csv row k (row 0 is round 0, node 0) to cells[k]
    def edit(rows):
        for k, cell in cells.items():
            rows[1 + k][ROUNDS_COLUMNS.index(column)] = cell
    return edit


@pytest.mark.parametrize("edit, failed", [
    # the round's exact pay total overflows, so conservation fails with the
    # recomputations; they must not skip the round as they skip one with a
    # non-finite cell
    (_set_cells("reward", {0: "-1e308", 1: "-1e308"}),
     ["reward_conservation_per_round (<= 1400.0)",
      "metrics_recomputed_from_rounds (round 0: overflow)",
      "summary_recomputed_from_rounds (overflow)"]),
    (_set_cells("reward", {0: "1e308", 1: "1e308"}),
     ["reward_conservation_per_round (<= 1400.0)",
      "metrics_recomputed_from_rounds (round 0: overflow)",
      "summary_recomputed_from_rounds (overflow)"]),
    (_set_cells("reputation", {0: "1e308", 1: "1e308"}),
     ["reputation_within_caps", "metrics_recomputed_from_rounds (round 0: overflow)"]),
    # rounds 0 and 1 each pay node 0 1e308 and node 1 -1e308: each round's
    # sums hold, but the two nodes' totals overflow to inf and -inf
    (_set_cells("reward", {0: "1e308", 1: "-1e308", 30: "1e308", 31: "-1e308"}),
     ["metrics_recomputed_from_rounds (round 0: jain)",
      "summary_recomputed_from_rounds (overflow)"]),
], ids=["two rewards of -1e308", "two rewards of 1e308", "two reputations of 1e308",
        "reward totals of inf and -inf"])
def test_verify_fails_recomputations_that_overflow(fast_config, tmp_path, capsys, edit, failed):
    # every cell is finite, but an exact sum over them is not: that check
    # fails, and every other check line still prints
    out = tmp_path / "vo"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    rows = read_rows(out / "rounds.csv")
    edit(rows)
    with (out / "rounds.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    rehash(out, "rounds.csv")
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    report = captured.out.splitlines()
    assert len(report) == 12 and captured.err == ""
    assert [line for line in report if line.startswith("FAIL")] == [f"FAIL {c}" for c in failed]


def test_verify_passes_header_only_files_of_zero_rounds(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("n_nodes = 5\nrounds = 0\n")
    out = tmp_path / "zero"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["verify", "--out", str(out)]) == 0
    assert "PASS rows_cover_every_round_and_node (0 rounds x 5 nodes)" in capsys.readouterr().out


def test_verify_names_cell_that_does_not_parse(fast_config, tmp_path, capsys):
    out = tmp_path / "vp"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    edit_first_row(out / "rounds.csv", committee="nan")
    rehash(out, "rounds.csv")
    assert main(["verify", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: corrupt file (line 2, column committee: 'nan'"
                                       f" is not 0 or 1): {out / 'rounds.csv'}\n")


@pytest.mark.parametrize("column, cell", [("committee", "2"), ("detected", "-1")])
def test_verify_rejects_a_flag_cell_other_than_0_or_1(fast_config, tmp_path, capsys, column,
                                                       cell):
    # an int other than 0 or 1 would pass every check as a member or a
    # detection
    out = tmp_path / "vf"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    edit_first_row(out / "rounds.csv", **{column: cell})
    rehash(out, "rounds.csv")
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: corrupt file (line 2, column {column}: {cell!r}"
                                       f" is not 0 or 1): {out / 'rounds.csv'}\n")


def test_verify_names_cell_that_does_not_parse_in_a_later_round(fast_config, tmp_path, capsys):
    out = tmp_path / "vp1"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    lines = (out / "rounds.csv").read_text().splitlines(keepends=True)
    # round 1, node 5 is file line 1 + 30 + 5 + 1
    cells = lines[36].split(",")
    assert cells[:2] == ["1", "5"]
    cells[ROUNDS_COLUMNS.index("reward")] = "x"
    lines[36] = ",".join(cells)
    (out / "rounds.csv").write_text("".join(lines))
    rehash(out, "rounds.csv")
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: corrupt file (line 37, column reward: 'x'"
                                       f" is not float): {out / 'rounds.csv'}\n")


def test_verify_names_line_of_cell_over_the_field_limit(fast_config, tmp_path, capsys):
    # a quoted cell longer than csv.field_size_limit() (131,072 characters) is
    # a corrupt file: one error line and exit 1, never a traceback
    out = tmp_path / "vl"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    lines = (out / "rounds.csv").read_text().splitlines(keepends=True)
    cells = lines[5].split(",")
    cells[ROUNDS_COLUMNS.index("role")] = '"' + "x" * 200_000 + '"'
    lines[5] = ",".join(cells)
    (out / "rounds.csv").write_text("".join(lines))
    rehash(out, "rounds.csv")
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt file (line 6") and err.count("\n") == 1


def test_verify_counts_lines_of_cells_that_hold_line_breaks(fast_config, tmp_path, capsys):
    out = tmp_path / "vb"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    simulated = read_rows(out / "rounds.csv")
    for roles, bad_row, line in [
        # row 1's quoted role spans file lines 2 and 3, so row 4 is file line 6
        ({1: "hon\r\nest"}, 4, 6),
        # rows 1 and 2 of round 0 span three more lines than they have rows, and
        # row 35 is in round 1's block of 30 rows, so it is file line 39
        ({1: "hon\r\nest", 2: "mal\ni\rcious"}, 35, 39),
    ]:
        rows = [list(row) for row in simulated]
        for row, role in roles.items():
            rows[row][ROUNDS_COLUMNS.index("role")] = role
        rows[bad_row][ROUNDS_COLUMNS.index("reward")] = "x"
        with (out / "rounds.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        rehash(out, "rounds.csv")
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: corrupt file (line {line}, column reward: 'x'"
                                           f" is not float): {out / 'rounds.csv'}\n")


def test_verify_names_metrics_cell_that_does_not_parse(fast_config, tmp_path, capsys):
    out = tmp_path / "vmx"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    lines = (out / "metrics.csv").read_text().splitlines(keepends=True)
    cells = lines[3].split(",")
    assert cells[0] == "2"
    cells[METRICS_COLUMNS.index("jain")] = "x"
    lines[3] = ",".join(cells)
    (out / "metrics.csv").write_text("".join(lines))
    rehash(out, "metrics.csv")
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: corrupt file (line 4, column jain: 'x'"
                                       f" is not float): {out / 'metrics.csv'}\n")


def test_verify_round_that_runs_on_is_not_whole(tmp_path, capsys):
    # Round 0's last row appears twice, so round 0 runs on past n_nodes rows and
    # is not whole: its metrics.csv row is not recomputed and the edited jain
    # goes unread; only the coverage check fails. Node 29 is malicious here and
    # submits nothing in round 0, so the copy adds nothing to the round's pay.
    cfg = tmp_path / "zero_attack.cfg"
    cfg.write_text("n_nodes = 30\nrounds = 12\nmalicious_percent = 0.2\n"
                   "attack_schedule = 0:12:zero\nseed = 14\n")
    out = tmp_path / "vw"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "rounds.csv").read_text().splitlines(keepends=True)
    last = lines[30].split(",")
    assert last[:3] == ["0", "29", "malicious"] and last[COMMITTEE] == "0"
    assert float(last[ROUNDS_COLUMNS.index("reward")]) == 0.0
    (out / "rounds.csv").write_text("".join(lines[:31] + lines[30:]))
    edit_first_row(out / "metrics.csv", jain="0.123")
    rehash(out, "rounds.csv", "metrics.csv")
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL rows_cover_every_round_and_node (12 rounds x 30 nodes)"
                      " (361 rounds.csv rows, 12 metrics.csv rows, out of order)"]


def test_verify_passes_a_population_of_one(tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("n_nodes = 1\ncommittee_size = 1\nrounds = 12\n")
    out = tmp_path / "one"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "FAIL" not in report
    assert "PASS rows_cover_every_round_and_node (12 rounds x 1 nodes)" in report


def _bump(value):
    # a value of the same JSON type that differs from the one written
    return value + 1 if isinstance(value, int) else value * 2.0 + 1.0


SUMMARY_EDITS = {
    "seed": lambda s: _bump(s["seed"]),
    "rounds": lambda s: _bump(s["rounds"]),
    "n_nodes": lambda s: _bump(s["n_nodes"]),
    "n_honest": lambda s: _bump(s["n_honest"]),
    "n_malicious": lambda s: _bump(s["n_malicious"]),
    "detected_per_round": lambda s: [_bump(s["detected_per_round"][0]),
                                     *s["detected_per_round"][1:]],
    # every flagged node flagged one round later than rounds.csv says
    "first_detection_round": lambda s: {node: _bump(t)
                                        for node, t in s["first_detection_round"].items()},
    "honest_total_reward": lambda s: _bump(s["honest_total_reward"]),
    "malicious_total_reward": lambda s: _bump(s["malicious_total_reward"]),
    "honest_mean_reputation": lambda s: _bump(s["honest_mean_reputation"]),
    "malicious_mean_reputation": lambda s: _bump(s["malicious_mean_reputation"]),
    "cumulative_reward_gini": lambda s: s["cumulative_reward_gini"] / 2.0,
    "honest_reward_gini": lambda s: s["honest_reward_gini"] / 2.0,
    "publisher_stake_income": lambda s: s["publisher_stake_income"] / 2.0,
}


def test_summary_edits_cover_every_summary_field(fast_config, tmp_path):
    # so that no field of summary.json goes unchecked by verify
    out = tmp_path / "vs"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    assert set(json.loads((out / "summary.json").read_text())) == set(SUMMARY_EDITS)


@pytest.mark.parametrize("field", sorted(SUMMARY_EDITS))
def test_verify_recomputes_each_summary_field(fast_config, tmp_path, capsys, field):
    out = tmp_path / "vs"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["first_detection_round"]
    summary[field] = SUMMARY_EDITS[field](summary)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    rehash(out, "summary.json")
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL summary_recomputed_from_rounds ({field})"]


def test_verify_missing_manifest_exits_2(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path / "empty")]) == 2
    assert "manifest" in capsys.readouterr().err


def _config_file_case(text, command="simulate", label=None):
    def argv(tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        return [command, "--config", str(path), "--out", str(tmp_path / "o")]
    prefix = "" if command == "simulate" else f"{command} "
    return pytest.param(argv, id=prefix + (label or text.replace("\n", "; ")))


def _sweep_case(*flags):
    return pytest.param(lambda tmp_path: ["sweep", *flags, "--out", str(tmp_path / "o")],
                        id=" ".join(flags))


def _verify_output_case(*command):
    def argv(tmp_path):
        main([*command, "--out", str(tmp_path / "run")])
        return ["verify", "--out", str(tmp_path / "run")]
    return pytest.param(argv, id=f"verify {command[0]} output")


def _manifest_case(text, name):
    def argv(tmp_path):
        (tmp_path / "manifest.json").write_text(text)
        return ["verify", "--out", str(tmp_path)]
    return pytest.param(argv, id=name)


def _path_case(*args, label):
    """`args` with {file} naming a file that exists and {dir} a directory."""
    def argv(tmp_path):
        (tmp_path / "file").write_text("")
        return [arg.format(file=tmp_path / "file", dir=tmp_path) for arg in args]
    return pytest.param(argv, id=label)


def _usage_case(*args):
    return pytest.param(lambda tmp_path: list(args), id=" ".join(args) or "no subcommand")


@pytest.mark.parametrize("make_argv", [
    *map(_config_file_case, [
        "t_max = abc", "seed = 1.5", "reward_pool = none", "reward_pool = nan",
        # a key the config no longer has
        "contract_accounting = yes",
        # a bool read as an int would make a valid population of one here
        "committee_size = 1\nn_nodes = true",
        "attack_schedule = 0:90:bogus", "rounds = 3"]),
    # a schedule that cannot run is rejected by every subcommand, not only by
    # the ones that run it
    _config_file_case("attack_schedule = 0:90:bogus", "contract-opt"),
    _config_file_case("rounds = 3", "contract-opt"),
    # valid configs outside the closed form's domain
    _config_file_case("reward_pool = 0", "contract-opt"),
    _config_file_case("stake_weight = 1", "contract-opt"),
    # each of these overflowed an exact sum of the run: a traceback, or nan
    # written to metrics.csv with exit 0
    *map(_config_file_case, [
        "reward_pool = 1e200", "reward_pool = 1e160",
        "initial_reputation = 1e200\nr_max_early = 1e300\nr_max_late = 1e300",
        # beta = 1 - alpha goes negative above 1
        "stake_weight = 2", "stake_weight = 1e300",
        # the publisher took in more stake than the nodes lost
        "stake_penalty_factor = 2"]),
    # an int too large for a C long, or for a double, ended in a traceback
    _config_file_case("cooldown_period = 100000000000000000000"),
    _config_file_case("n_nodes = 1" + "0" * 400, label="n_nodes of 401 digits"),
    # too large to allocate: a numpy _ArrayMemoryError traceback from the
    # population, or a bare MemoryError from a --seeds range too long to list;
    # each request fails before anything is allocated
    _config_file_case("n_nodes = 9007199254740992"),
    _sweep_case("--seeds", "0:1000000000000000"),
    _sweep_case("--grid", "initial_stake=1e308", "--seeds", "0"),
    _sweep_case("--grid", "committee_bonus=1e308", "--seeds", "0"),
    _sweep_case("--grid", "n_nodes=abc"),
    _sweep_case("--seeds", "5:2"),
    _sweep_case("--seeds", "abc"),
    # the grid would label runs with a seed that --seeds overrides
    _sweep_case("--grid", "seed=1,2", "--seeds", "0"),
    # a repeated key would silently keep only its last values
    _sweep_case("--grid", "malicious_percent=0.1", "--grid", "malicious_percent=0.2",
                "--seeds", "0"),
    # verify checks simulate output only
    _verify_output_case("sweep", "--grid", "rounds=8"),
    _verify_output_case("contract-opt"),
    _manifest_case("{not json", "manifest not JSON"),
    # a path of the wrong kind ended in an OSError traceback
    _path_case("simulate", "--out", "{file}", label="simulate --out an existing file"),
    _path_case("simulate", "--out", "{file}/o", label="simulate --out a path under a file"),
    _path_case("verify", "--out", "{file}", label="verify --out a file"),
    # contract-opt printed its whole report before it failed
    _path_case("contract-opt", "--out", "{file}", label="contract-opt --out an existing file"),
    _path_case("simulate", "--config", "{dir}", "--out", "{dir}/o", label="--config a directory"),
    # argparse printed its usage text as well as the error
    _usage_case("simulate", "--seed", "x"),
    _usage_case(),
    _usage_case("sweep", "--seeds"),
])
def test_bad_input_exits_2_with_one_error_line(make_argv, tmp_path, capsys):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # nothing is printed to stdout either
    assert captured.out == ""
    # nothing is written for a rejected input
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


def _named(param, key, code=2):
    """A bad-input case that expects exit `code` and one line naming `key`."""
    return pytest.param(*param.values, code, key, id=param.id)


def _summary_not_json(tmp_path):
    (tmp_path / "fast.cfg").write_text(FAST_CONFIG)
    main(["simulate", "--config", str(tmp_path / "fast.cfg"), "--out", str(tmp_path / "run")])
    (tmp_path / "run" / "summary.json").write_text("{not json")
    rehash(tmp_path / "run", "summary.json")
    return ["verify", "--out", str(tmp_path / "run")]


NON_NEGATIVE_KEYS = [
    "initial_stake", "initial_reputation", "r_max_early", "r_max_late", "committee_bonus",
    "base_decay", "decay_compensation", "default_stability", "contribution_bonus",
    "stability_bonus", "reputation_penalty_factor", "reward_pool", "theta_low", "theta_fluct",
    "theta_jump", "eps_std", "normal_sigma", "false_high_std", "eta_switch"]


@pytest.mark.parametrize("make_argv, code, key", [
    *(_named(_config_file_case(text), key) for text, key in [
        ("strata = 0", "strata: L must be >= 1"),
        ("n_nodes = 0", "n_nodes: population must be >= 1"),
        ("committee_size = 0", "committee_size: must be >= 1"),
        ("base_decay = 0.95", "base_decay/decay_compensation: delta_b + lambda_p must be <= 1"),
        ("c_max = 0", "c_max: must exceed c_min"),
        ("window = 0", "window: must be >= 1"),
        ("rounds = -1", "rounds: must be >= 0"),
        ("cooldown_period = -1", "cooldown_period: must be >= 0"),
        ("f_scale = 0", "f_scale: must be positive"),
        ("gamma_c = 0", "gamma_c: must be positive"),
        ("epsilon = 0", "epsilon: must be positive"),
        ("fluct_low = 1.2", "fluct_low/fluct_high: invalid range"),
        ("tau_low = 0", "tau_low/tau_high: completion times must be a positive range"),
        ("t_max = 0", "t_max: must be positive when set"),
        *((f"{name} = -1", f"{name}: must be non-negative") for name in NON_NEGATIVE_KEYS),
        ("attack_schedule = 0:90", "attack_schedule: bad phase '0:90'"),
        ("n_nodes 30", "n_nodes 30"),
        # a node flagged at the switch round kept a reputation above the lower
        # cap, and verify failed the run
        ("n_nodes = 60\nrounds = 40\nr_max_early = 500\nr_max_late = 300\n"
         "r_max_switch_round = 20\nattack_schedule = 0:21:false_high, 21:40:zero",
         "r_max_late: the cap must not fall below r_max_early"),
        # the last n_nodes line won
        ("n_nodes = 30\nrounds = 12\nn_nodes = 40",
         "bad.cfg:3: config key 'n_nodes' already given on line 1"),
        # only a line that starts with # is a comment
        ("n_nodes = 30  # population", "n_nodes: expected int"),
    ]),
    _named(_manifest_case(json.dumps({"subcommand": "simulate", "files": {}}),
                          "manifest without config"), "KeyError: 'config'"),
    _named(_manifest_case(json.dumps({"subcommand": "simulate", "files": {},
                                      "config": {"attack_schedule": [[0, 90, "bogus"]]}}),
                          "manifest with pattern bogus"), "unknown pattern 'bogus'"),
    _named(_manifest_case(json.dumps({"subcommand": "simulate", "config": []}),
                          "manifest config a list"), "config must be a mapping"),
    _named(_manifest_case(json.dumps({"subcommand": "simulate", "config": {"bogus": 1}}),
                          "manifest config key bogus"), "unknown config key 'bogus'"),
    _named(_sweep_case("--grid", "n_nodes"), "--grid expects key=v1,v2,... got 'n_nodes'"),
    pytest.param(_summary_not_json, 1, "summary_recomputed_from_rounds", id="summary not JSON"),
])
def test_each_rejection_is_one_line_that_names_its_key(make_argv, code, key, tmp_path, capsys):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        lines = captured.err.splitlines()
    else:
        # verify reports a run file it cannot read as one FAIL line
        assert captured.err == ""
        lines = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
    assert len(lines) == 1 and key in lines[0], lines
