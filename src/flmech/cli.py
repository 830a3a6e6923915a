"""Command-line front end.

Subcommands:
  simulate      run one seeded simulation and export per-round CSVs + summary
  sweep         run a parameter grid x seed matrix into one long-format CSV
  contract-opt  solve the optimal-contract problem and print a JSON report
  verify        recheck the invariant suite over a simulate output directory

Exit codes: 0 success, 1 invariant failure or a contract without a positive
stake, 2 usage/config error.
The output directory can also be set with the FLMECH_OUT environment
variable; an explicit --out wins.
"""

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .contract import DegenerateContract, optimal_contract_closed_form, solve_constrained
from .core import (
    _CONFIG_FIELDS, ConfigError, DomainError, Role, RoundRecord, SystemConfig, _parse_value,
    config_from_dict, config_to_dict, load_config, validate_config,
)
# `run_simulation` is not called here; it stays a name of this module because
# bench/spans.py wraps `cli.run_simulation` by that name.
from .engine import WorldState, iter_rounds, new_world, run_simulation  # noqa: F401
from .metrics import gini, jain_index, mean
from .reputation import quality

SCHEMA_VERSION = 1
ROUNDS_COLUMNS = ["round", "node_id", "role", "contribution", "tau", "quality",
                  "reputation", "penalty", "reward", "committee", "detected"]
METRICS_COLUMNS = ["round", "jain", "gini", "detected_count", "honest_mean_rep",
                   "malicious_mean_rep", "honest_mean_reward", "malicious_mean_reward"]
ROUNDS_TYPES = [int, int, str] + [float] * 6 + [int, int]
METRICS_TYPES = [int, float, float, int] + [float] * 4


def _sha256(path: Path) -> str:
    with path.open("rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _load_cfg(config_path: str | None) -> SystemConfig:
    return load_config(config_path) if config_path else validate_config(SystemConfig())


def _round_rows(rec: RoundRecord, roles: list[str]):
    committee = set(rec.committee)
    detected = set(rec.detected)
    for i, role in enumerate(roles):
        yield [rec.round, i, role, rec.contributions[i], rec.completion_times[i],
               rec.qualities[i], rec.reputation_after[i], rec.penalties[i],
               rec.rewards[i], int(i in committee), int(i in detected)]


def _role_means(values: list[float], honest: list[int], malicious: list[int]) -> list[float]:
    return [mean([values[i] for i in honest]), mean([values[i] for i in malicious])]


def _metrics_row(rec: RoundRecord, honest: list[int], malicious: list[int]) -> list:
    return [rec.round, rec.jain_fairness, rec.gini, len(rec.detected),
            *_role_means(rec.reputation_after, honest, malicious),
            *_role_means(rec.rewards, honest, malicious)]


def _metrics_from_rounds(rows: list[list], eps: float) -> list:
    """The metrics.csv row that one whole round of rounds.csv rows (node
    order) implies: the engine's metric functions, in the engine's order,
    over the round's rewards, reputations, detected flags and role tags."""
    rewards = [row[8] for row in rows]
    honest_tag, malicious_tag = Role.HONEST.value, Role.MALICIOUS.value
    honest = [i for i, row in enumerate(rows) if row[2] == honest_tag]
    malicious = [i for i, row in enumerate(rows) if row[2] == malicious_tag]
    return [rows[0][0], jain_index(rewards, eps), gini(rewards), sum(row[10] for row in rows),
            *_role_means([row[6] for row in rows], honest, malicious),
            *_role_means(rewards, honest, malicious)]


def _role_ids(state: WorldState) -> tuple[list[int], list[int]]:
    """(honest ids, malicious ids), in node order."""
    malicious = state.nodes.malicious
    return np.flatnonzero(~malicious).tolist(), np.flatnonzero(malicious).tolist()


def _csv_writer(fh, header: list[str]):
    writer = csv.writer(fh)
    writer.writerow(header)
    return writer


def _write_manifest(out_dir: Path, subcommand: str, cfg: SystemConfig,
                    config_path: str | None, seeds: list[int],
                    file_names: list[str], extra: dict | None = None) -> Path:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "config_path": config_path,
        "seeds": seeds,
        "out_dir": str(out_dir),
        "config": config_to_dict(cfg),
        "files": {name: _sha256(out_dir / name) for name in sorted(file_names)},
    }
    if extra:
        manifest.update(extra)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _resolve_out(args, create: bool = True) -> Path:
    """--out, else $FLMECH_OUT, else ./out; created unless `create` is false."""
    path = Path(args.out or os.environ.get("FLMECH_OUT") or "out")
    if create:
        path.mkdir(parents=True, exist_ok=True)
    return path


def export_simulation(state: WorldState, records: Iterable[RoundRecord], out_dir: Path,
                      config_path: str | None = None) -> None:
    """Write one run's rounds.csv, metrics.csv, summary.json and manifest.json
    into an existing directory. Each record's rows are written as the record
    arrives, so `records` may be `iter_rounds(state)`; summary.json is taken
    from `state` once `records` is exhausted."""
    roles = np.where(state.nodes.malicious, Role.MALICIOUS.value, Role.HONEST.value).tolist()
    honest, malicious = _role_ids(state)
    with (out_dir / "rounds.csv").open("w", newline="") as rounds_fh, \
            (out_dir / "metrics.csv").open("w", newline="") as metrics_fh:
        rounds_csv = _csv_writer(rounds_fh, ROUNDS_COLUMNS)
        metrics_csv = _csv_writer(metrics_fh, METRICS_COLUMNS)
        for rec in records:
            rounds_csv.writerows(_round_rows(rec, roles))
            metrics_csv.writerow(_metrics_row(rec, honest, malicious))
    summary = state.summary()
    summary["first_detection_round"] = {str(k): v for k, v in summary["first_detection_round"].items()}
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_manifest(out_dir, "simulate", state.cfg, config_path, [state.cfg.seed],
                    ["rounds.csv", "metrics.csv", "summary.json"],
                    extra={"columns": {"rounds.csv": ROUNDS_COLUMNS,
                                       "metrics.csv": METRICS_COLUMNS}})
    print(f"simulate: wrote rounds.csv, metrics.csv, summary.json, manifest.json to {out_dir}")


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args.config)
    out_dir = _resolve_out(args)
    state = new_world(cfg, seed=args.seed)
    export_simulation(state, iter_rounds(state), out_dir, args.config)
    return 0


def _parse_grid(pairs: list[str]) -> dict[str, list]:
    grid = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--grid expects key=v1,v2,... got '{pair}'")
        key, _, rest = pair.partition("=")
        key = key.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown grid key '{key}'")
        if key == "seed":
            raise ConfigError("seed is not a grid key; give the seeds with --seeds")
        if key in grid:
            raise ConfigError(f"grid key '{key}' given more than once")
        grid[key] = [_parse_value(key, tok) for tok in rest.split(",")]
    return grid


def _parse_seeds(raw: str) -> list[int]:
    lo, colon, hi = raw.partition(":")
    try:
        seeds = (list(range(int(lo), int(hi))) if colon
                 else [int(tok) for tok in raw.split(",") if tok.strip()])
    except ValueError:
        raise ConfigError(f"--seeds expects a comma list or a lo:hi range, got '{raw}'") from None
    if not seeds:
        raise ConfigError(f"--seeds '{raw}' selects no seed")
    return seeds


def cmd_sweep(args) -> int:
    cfg = _load_cfg(args.config)
    grid = _parse_grid(args.grid)
    seeds = _parse_seeds(args.seeds)
    out_dir = _resolve_out(args)

    keys = sorted(grid)
    combos = list(itertools.product(*(grid[key] for key in keys)))
    # every grid point is checked before the first run, so a bad one writes nothing
    point_cfgs = [validate_config(replace(cfg, **dict(zip(keys, combo)))) for combo in combos]

    rows = []
    run_summaries = []
    for combo, point_cfg in zip(combos, point_cfgs):
        for seed in seeds:
            state = new_world(point_cfg, seed=seed)
            honest, malicious = _role_ids(state)
            rows += [[*combo, seed, *_metrics_row(rec, honest, malicious)]
                     for rec in iter_rounds(state)]
            s = state.summary()
            run_summaries.append({
                "grid": dict(zip(keys, combo)), "seed": seed,
                "honest_total_reward": s["honest_total_reward"],
                "malicious_total_reward": s["malicious_total_reward"],
                "cumulative_reward_gini": s["cumulative_reward_gini"],
                "honest_reward_gini": s["honest_reward_gini"],
            })
    with (out_dir / "sweep.csv").open("w", newline="") as fh:
        _csv_writer(fh, keys + ["seed"] + METRICS_COLUMNS).writerows(rows)
    (out_dir / "sweep_summary.json").write_text(
        json.dumps(run_summaries, indent=2, sort_keys=True) + "\n")
    # the manifest names the first run's seed, as simulate names its run's
    _write_manifest(out_dir, "sweep", replace(cfg, seed=seeds[0]), args.config, seeds,
                    ["sweep.csv", "sweep_summary.json"],
                    extra={"grid": {k: grid[k] for k in keys},
                           "runs": len(combos) * len(seeds)})
    print(f"sweep: {len(combos) * len(seeds)} runs -> {out_dir / 'sweep.csv'}")
    return 0


def cmd_contract_opt(args) -> int:
    cfg = _load_cfg(args.config)
    solution = solve_constrained(cfg)
    closed = optimal_contract_closed_form(cfg)
    doc = {**asdict(solution), "closed_form": asdict(closed)}
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.out or os.environ.get("FLMECH_OUT"):
        out_dir = _resolve_out(args)
        (out_dir / "contract.json").write_text(text + "\n")
        _write_manifest(out_dir, "contract-opt", cfg, args.config, [cfg.seed], ["contract.json"])
    return 0


def _csv_rows(path: Path, header: list[str], types: list[type]):
    """Yield the rows of a CSV file, one at a time, after checking its header,
    with each cell parsed as its column's type; a row whose width differs
    from the header's, or a cell that does not parse, is a corrupt file."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ValueError(f"corrupt file (header is not {','.join(header)}): {path}")
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"corrupt file (line {reader.line_num} has {len(row)} fields,"
                                 f" expected {len(header)}): {path}")
            for column, kind in enumerate(types):
                try:
                    row[column] = kind(row[column])
                except ValueError:
                    raise ValueError(f"corrupt file (line {reader.line_num}, column {header[column]}:"
                                     f" {row[column]!r} is not {kind.__name__}): {path}") from None
            yield row


def cmd_verify(args) -> int:
    out_dir = _resolve_out(args, create=False)
    manifest_path = out_dir / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
        if manifest["subcommand"] != "simulate":
            raise ValueError(f"verify checks simulate output, not {manifest['subcommand']} output")
        cfg = config_from_dict(manifest["config"])
        digests = dict(manifest["files"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad manifest {manifest_path}: {type(exc).__name__}: {exc}") from None

    per_round_paid: dict[int, float] = {}
    per_round_members: dict[int, int] = {}
    caps_ok = override_ok = finite_ok = in_order = quality_ok = penalty_ok = metrics_ok = True
    committee_rounds: dict[int, list[int]] = {}
    # the metrics.csv row each whole, in-order, finite round of rounds.csv implies
    implied_metrics: dict[int, list] = {}
    metrics_mismatch = ""
    # each node's reputation after the round before
    previous_rep = [cfg.initial_reputation] * cfg.n_nodes
    # row k of rounds.csv is round k // n_nodes, node k % n_nodes; of metrics.csv, round k
    rounds_rows = metrics_rows = 0
    try:
        bad = [name for name, digest in digests.items() if _sha256(out_dir / name) != digest]
        rounds = itertools.groupby(_csv_rows(out_dir / "rounds.csv", ROUNDS_COLUMNS, ROUNDS_TYPES),
                                   key=lambda row: row[0])
        for t, group in rounds:
            round_rows = list(group)
            round_finite = True
            for row in round_rows:
                _, node, _role, contribution, _tau, q, rep, penalty, reward, committee, detected = row
                per_round_paid[t] = per_round_paid.get(t, 0.0) + reward
                caps_ok = caps_ok and 0.0 <= rep <= cfg.r_max(t) + 1e-9
                override_ok = override_ok and (contribution != 0.0 or reward == 0.0)
                in_order = in_order and divmod(rounds_rows, cfg.n_nodes) == (t, node)
                finite = all(map(math.isfinite, row[3:]))
                finite_ok = finite_ok and finite
                round_finite = round_finite and finite
                if finite:
                    quality_ok = quality_ok and q == quality(contribution, cfg.c_min, cfg.c_max)
                if finite and in_order:
                    penalty_ok = penalty_ok and (0.0 <= penalty <= previous_rep[node] / 2.0
                                                 if detected else penalty == 0.0)
                if in_order:
                    previous_rep[node] = rep
                if committee:
                    committee_rounds.setdefault(node, []).append(t)
                    per_round_members[t] = per_round_members.get(t, 0) + 1
                rounds_rows += 1
            if in_order and round_finite and len(round_rows) == cfg.n_nodes:
                implied_metrics[t] = _metrics_from_rounds(round_rows, cfg.epsilon)
        for row in _csv_rows(out_dir / "metrics.csv", METRICS_COLUMNS, METRICS_TYPES):
            finite_ok = finite_ok and all(map(math.isfinite, row))
            in_order = in_order and row[0] == metrics_rows
            implied = implied_metrics.pop(row[0], None)
            if metrics_ok and implied is not None and row != implied:
                metrics_ok = False
                column = next(c for c, a, b in zip(METRICS_COLUMNS, row, implied) if a != b)
                metrics_mismatch = f"round {row[0]}: {column}"
            metrics_rows += 1
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # Each check holds only when its comparison is true, so a NaN fails it; the
    # quality, penalty and metrics checks skip rows with a non-finite cell, and
    # the penalty and metrics checks stop at the first row out of order, whose
    # previous round is unknown. The metrics check also skips a round that
    # rounds.csv does not hold whole; the coverage check fails such files.
    bound = cfg.reward_pool + cfg.committee_size * cfg.committee_bonus
    checks = [
        ("file_hashes_match_manifest", not bad, ", ".join(bad)),
        (f"reward_conservation_per_round (<= {bound})",
         all(paid <= bound + 1e-9 for paid in per_round_paid.values()), ""),
        ("reputation_within_caps", caps_ok, ""),
        ("zero_contribution_zero_reward", override_ok, ""),
        (f"committee_gap_exceeds_cooldown (> {cfg.cooldown_period})",
         all(b - a > cfg.cooldown_period for ts in map(sorted, committee_rounds.values())
             for a, b in zip(ts, ts[1:])), ""),
        ("numeric_cells_finite", finite_ok, ""),
        ("quality_is_sigmoid_of_contribution", quality_ok, ""),
        ("penalty_only_if_detected_at_most_half_reputation", penalty_ok, ""),
        (f"committee_within_size (<= {cfg.committee_size})",
         all(size <= cfg.committee_size for size in per_round_members.values()), ""),
        ("metrics_recomputed_from_rounds", metrics_ok, metrics_mismatch),
        (f"rows_cover_every_round_and_node ({cfg.rounds} rounds x {cfg.n_nodes} nodes)",
         in_order and rounds_rows == cfg.rounds * cfg.n_nodes and metrics_rows == cfg.rounds,
         f"{rounds_rows} rounds.csv rows, {metrics_rows} metrics.csv rows"
         + ("" if in_order else ", out of order")),
    ]
    for name, ok, detail in checks:
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    return 0 if all(ok for _, ok, _ in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flmech",
        description="Reputation-based FL incentive mechanism simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one simulation and export CSV/JSON")
    sim.add_argument("--config", help="key = value config file")
    sim.add_argument("--seed", type=int, help="override the config seed")
    sim.add_argument("--out", help="output directory (default: $FLMECH_OUT or ./out)")
    sim.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="run a parameter grid x seeds matrix")
    sweep.add_argument("--config", help="base config file")
    sweep.add_argument("--grid", action="append", default=[],
                       help="key=v1,v2,... (repeatable)")
    sweep.add_argument("--seeds", default="0", help="comma list or lo:hi range")
    sweep.add_argument("--out", help="output directory")
    sweep.set_defaults(func=cmd_sweep)

    copt = sub.add_parser("contract-opt", help="solve the optimal contract")
    copt.add_argument("--config", help="config file")
    copt.add_argument("--out", help="also write contract.json + manifest here")
    copt.set_defaults(func=cmd_contract_opt)

    ver = sub.add_parser("verify", help="recheck invariants over simulate output")
    ver.add_argument("--out", help="directory containing manifest.json")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateContract as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
