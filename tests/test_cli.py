"""CLI contract: file schemas, exit codes, determinism, verify checks."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flmech import cli
from flmech.cli import METRICS_COLUMNS, ROUNDS_COLUMNS, main
from flmech.core import load_config
from flmech.engine import new_world, run_simulation

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


def test_streamed_simulate_matches_export_of_kept_records(fast_config, tmp_path, monkeypatch):
    # simulate writes each round as it finishes; exporting the records that
    # run_simulation keeps goes through the same writer and gives the same bytes
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", "fast.cfg", "--out", "streamed"]) == 0
    result = run_simulation(load_config(fast_config))
    kept = tmp_path / "kept"
    kept.mkdir()
    cli.export_simulation(result, result.records, Path("kept"), "fast.cfg")
    for name in ("rounds.csv", "metrics.csv", "summary.json"):
        assert (kept / name).read_bytes() == (tmp_path / "streamed" / name).read_bytes()
    streamed = json.loads((tmp_path / "streamed" / "manifest.json").read_text())
    assert json.loads((kept / "manifest.json").read_text()) == {**streamed, "out_dir": "kept"}


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
    # grid tokens take the config file's typed parser: bools, none, and
    # floats for float fields even when written as integers
    out = tmp_path / "sweep_typed"
    rc = main(["sweep", "--config", str(fast_config),
               "--grid", "contract_accounting=true,false",
               "--grid", "t_max=none,1.0",
               "--grid", "reward_pool=600",
               "--seeds", "0", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid"] == {"contract_accounting": [True, False],
                                "reward_pool": [600.0], "t_max": [None, 1.0]}
    rows = read_rows(out / "sweep.csv")
    assert rows[0][:3] == ["contract_accounting", "reward_pool", "t_max"]
    assert len(rows) == 1 + 4 * 12
    assert {tuple(r[:3]) for r in rows[1:]} == {
        (acc, "600.0", t_max) for acc in ("True", "False") for t_max in ("", "1.0")}


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


def test_verify_detects_conservation_violation(fast_config, tmp_path, capsys):
    out = tmp_path / "vc"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    edit_first_row(out / "rounds.csv", reward="99999.0")  # exceeds pool + committee bonuses
    rehash(out, "rounds.csv")

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


def test_verify_detects_hash_mismatch(fast_config, tmp_path, capsys):
    out = tmp_path / "vh"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    (out / "summary.json").write_text("{}")
    assert main(["verify", "--out", str(out)]) == 1
    assert "FAIL file_hashes_match_manifest" in capsys.readouterr().out


def test_verify_truncated_csv_reports_corrupt(fast_config, tmp_path, capsys):
    out = tmp_path / "vt"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    lines = (out / "rounds.csv").read_text().splitlines()
    truncated = "\n".join(lines[:5] + [lines[5][: len(lines[5]) // 2]])
    (out / "rounds.csv").write_text(truncated)
    rehash(out, "rounds.csv")
    assert main(["verify", "--out", str(out)]) == 1
    assert "corrupt file" in capsys.readouterr().err


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
], ids=["rounds.csv cut at a row boundary", "rounds.csv rows swapped",
        "metrics.csv rows swapped"])
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


@pytest.mark.parametrize("column", METRICS_COLUMNS[1:])
def test_verify_recomputes_each_metrics_column(fast_config, tmp_path, capsys, column):
    # a finite value of the column's type that the round's rounds.csv rows do not imply
    out = tmp_path / "vx"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    edit_first_row(out / "metrics.csv", **{column: "7" if column == "detected_count" else "0.123"})
    rehash(out, "metrics.csv")
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL metrics_recomputed_from_rounds (round 0: {column})"]


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
                                       f" is not int): {out / 'rounds.csv'}\n")


def test_verify_missing_manifest_exits_2(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path / "empty")]) == 2
    assert "manifest" in capsys.readouterr().err


def _config_file_case(text, command="simulate"):
    def argv(tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        return [command, "--config", str(path), "--out", str(tmp_path / "o")]
    prefix = "" if command == "simulate" else f"{command} "
    return pytest.param(argv, id=prefix + text.replace("\n", "; "))


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


@pytest.mark.parametrize("make_argv", [
    *map(_config_file_case, [
        "t_max = abc", "seed = 1.5", "reward_pool = none", "reward_pool = nan",
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
    _manifest_case(json.dumps({"files": {}}), "manifest without config"),
    _manifest_case(json.dumps({"config": {"attack_schedule": [[0, 90, "bogus"]]}, "files": {}}),
                   "manifest with pattern bogus"),
])
def test_bad_input_exits_2_with_one_error_line(make_argv, tmp_path, capsys):
    assert main(make_argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # nothing is written for a rejected input
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())
