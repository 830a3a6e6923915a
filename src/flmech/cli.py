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
from collections.abc import Callable
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import committee
from .contract import DegenerateContract, optimal_contract_closed_form, solve_constrained
from .core import (
    _CONFIG_FIELDS, ConfigError, DomainError, Role, RoundRecord, SystemConfig, _format_schedule,
    _parse_value, config_from_dict, config_to_dict, load_config, validate_config,
)
from .detection import deduct_stakes
# `run_simulation` is not called here; it stays a name of this module because
# bench/spans.py wraps `cli.run_simulation` by that name.
from .engine import WorldState, iter_rounds, new_world, run_simulation  # noqa: F401
from .metrics import exact_sum, gini, jain_index, mean
from .reputation import qualities

SCHEMA_VERSION = 1
ROUNDS_COLUMNS = ["round", "node_id", "role", "contribution", "tau", "quality",
                  "reputation", "penalty", "reward", "committee", "detected"]
METRICS_COLUMNS = ["round", "jain", "gini", "detected_count", "honest_mean_rep",
                   "malicious_mean_rep", "honest_mean_reward", "malicious_mean_reward"]
# a committee or detected cell is a flag: "0" or "1" reads as 0 or 1, any other
# cell raises ValueError
_flag = ("0", "1").index
ROUNDS_TYPES = [int, int, str] + [float] * 6 + [_flag, _flag]
METRICS_TYPES = [int, float, float, int] + [float] * 4
# the files a simulate run writes and its manifest hashes
RUN_FILES = ["rounds.csv", "metrics.csv", "summary.json"]


def _sha256(path: Path) -> str:
    with path.open("rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _load_cfg(config_path: str | None) -> SystemConfig:
    return load_config(config_path) if config_path else validate_config(SystemConfig())


def _round_text(rec: RoundRecord, node_ids: list[str], roles: list[str]) -> str:
    """A round's rounds.csv rows as one string, byte for byte what the csv
    module's default dialect writes for them: floats by `repr`, ints by
    `str`, no cell quoted (no cell holds a comma, quote or line break), each
    line ended by \\r\\n. `node_ids` and `roles` are node i's id and role tag
    at index i."""
    committee, detected = np.full(len(node_ids), "0"), np.full(len(node_ids), "0")
    committee[rec.committee] = "1"
    detected[rec.detected] = "1"
    floats = (map(repr, col.tolist()) for col in (
        rec.contributions, rec.completion_times, rec.qualities, rec.reputation_after,
        rec.penalties, rec.rewards))
    rows = zip(itertools.repeat(str(rec.round)), node_ids, roles, *floats,
               committee.tolist(), detected.tolist())
    return "\r\n".join(map(",".join, rows)) + "\r\n"


def _metrics_row(t: int, jain: float, gini: float, detected_count: int, reputation: np.ndarray,
                 rewards: np.ndarray, honest: np.ndarray, malicious: np.ndarray) -> list:
    """One metrics.csv row: a round's metrics, then the honest and malicious
    means of its reputation and reward columns. The role masks are separate,
    so a node in neither counts in neither mean."""
    return [t, jain, gini, detected_count, mean(reputation[honest]), mean(reputation[malicious]),
            mean(rewards[honest]), mean(rewards[malicious])]


def _csv_writer(fh, header: list[str]):
    writer = csv.writer(fh)
    writer.writerow(header)
    return writer


def _summary_doc(state: WorldState) -> dict:
    """summary.json's content: the run's summary, its node ids made the
    string keys that JSON objects have."""
    summary = state.summary()
    summary["first_detection_round"] = {str(k): v for k, v in summary["first_detection_round"].items()}
    return summary


def _write_manifest(out_dir: Path, subcommand: str, cfg: SystemConfig, seeds: list[int],
                    file_names: list[str], extra: dict | None = None) -> None:
    """Write out_dir/manifest.json, which names no path: a run's manifest does
    not depend on where its files or its config file are."""
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "seeds": seeds,
        "config": config_to_dict(cfg),
        "files": {name: _sha256(out_dir / name) for name in sorted(file_names)},
    }
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _resolve_out(args, create: bool = True) -> Path:
    """--out, else $FLMECH_OUT, else ./out; created unless `create` is false."""
    path = Path(args.out or os.environ.get("FLMECH_OUT") or "out")
    if create:
        path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_simulate(args) -> int:
    """Write one run's rounds.csv, metrics.csv, summary.json and manifest.json,
    each round's rows as the round finishes."""
    cfg = _load_cfg(args.config)
    out_dir = _resolve_out(args)
    state = new_world(cfg, seed=args.seed)
    malicious = state.nodes.malicious
    node_ids = list(map(str, range(len(malicious))))
    roles = np.where(malicious, Role.MALICIOUS.value, Role.HONEST.value).tolist()
    with (out_dir / "rounds.csv").open("w", newline="") as rounds_fh, \
            (out_dir / "metrics.csv").open("w", newline="") as metrics_fh:
        _csv_writer(rounds_fh, ROUNDS_COLUMNS)
        metrics_csv = _csv_writer(metrics_fh, METRICS_COLUMNS)
        for rec in iter_rounds(state):
            rounds_fh.write(_round_text(rec, node_ids, roles))
            metrics_csv.writerow(_metrics_row(rec.round, rec.jain_fairness, rec.gini,
                                              len(rec.detected), rec.reputation_after,
                                              rec.rewards, ~malicious, malicious))
    (out_dir / "summary.json").write_text(
        json.dumps(_summary_doc(state), indent=2, sort_keys=True) + "\n")
    _write_manifest(out_dir, "simulate", state.cfg, [state.cfg.seed], RUN_FILES,
                    extra={"columns": {"rounds.csv": ROUNDS_COLUMNS,
                                       "metrics.csv": METRICS_COLUMNS}})
    print(f"simulate: wrote rounds.csv, metrics.csv, summary.json, manifest.json to {out_dir}")
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

    run_summaries = []
    with (out_dir / "sweep.csv").open("w", newline="") as fh:
        sweep_csv = _csv_writer(fh, keys + ["seed"] + METRICS_COLUMNS)
        for combo, point_cfg in zip(combos, point_cfgs):
            # a schedule cell is written in the config grammar that --grid reads
            cells = [_format_schedule(v) if k == "attack_schedule" and v else v
                     for k, v in zip(keys, combo)]
            for seed in seeds:
                state = new_world(point_cfg, seed=seed)
                malicious = state.nodes.malicious
                sweep_csv.writerows([*cells, seed, *_metrics_row(
                    rec.round, rec.jain_fairness, rec.gini, len(rec.detected),
                    rec.reputation_after, rec.rewards, ~malicious, malicious)]
                    for rec in iter_rounds(state))
                s = state.summary()
                run_summaries.append({
                    "grid": dict(zip(keys, combo)), "seed": seed,
                    "honest_total_reward": s["honest_total_reward"],
                    "malicious_total_reward": s["malicious_total_reward"],
                    "cumulative_reward_gini": s["cumulative_reward_gini"],
                    "honest_reward_gini": s["honest_reward_gini"],
                })
    (out_dir / "sweep_summary.json").write_text(
        json.dumps(run_summaries, indent=2, sort_keys=True) + "\n")
    # the manifest names the first run's seed, as simulate names its run's
    _write_manifest(out_dir, "sweep", replace(cfg, seed=seeds[0]), seeds,
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
    # a bad --out fails before the report is printed
    out_dir = _resolve_out(args) if args.out or os.environ.get("FLMECH_OUT") else None
    print(text)
    if out_dir:
        (out_dir / "contract.json").write_text(text + "\n")
        _write_manifest(out_dir, "contract-opt", cfg, [cfg.seed], ["contract.json"])
    return 0


def _csv_blocks(path: Path, header: list[str], types: list[Callable[[str], object]], size: int):
    """Yield the rows of a CSV file `size` at a time (the last block may be
    shorter), each block as its list of columns, after checking the header,
    with each cell parsed as its column's type: a float column as a float64
    array, any other as a list (a flag column's cells as 0 or 1). A row whose
    width differs from the header's, a cell that does not parse, or text the
    csv module rejects (such as a cell over `csv.field_size_limit()`) is a
    corrupt file, and the error names its line."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != header:
                raise ValueError(f"corrupt file (header is not {','.join(header)}): {path}")
            while rows := list(itertools.islice(reader, size)):
                try:
                    # the strict zips raise ValueError on rows of unequal widths or of
                    # a width other than the header's
                    columns = [np.fromiter(map(float, column), float, len(rows)) if kind is float
                               else list(map(kind, column))
                               for kind, column in zip(types, zip(*rows, strict=True), strict=True)]
                except ValueError:
                    _raise_bad_row(path, header, types)
                    raise
                del rows   # free the row strings while the block is checked
                yield columns
        except csv.Error as exc:
            raise ValueError(f"corrupt file (line {reader.line_num}: {exc}): {path}") from None


def _raise_bad_row(path: Path, header: list[str], types: list[Callable[[str], object]]) -> None:
    """Raise the error that names the first bad row of the CSV file `path`, read
    again from the top, by the line the csv reader ends the row on."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"corrupt file (line {reader.line_num} has {len(row)} fields,"
                                 f" expected {len(header)}): {path}")
            for cell, column, kind in zip(row, header, types):
                try:
                    kind(cell)
                except ValueError:
                    name = "0 or 1" if kind is _flag else kind.__name__
                    raise ValueError(f"corrupt file (line {reader.line_num}, column {column}:"
                                     f" {cell!r} is not {name}): {path}") from None


# IEEE arithmetic on cells read from the files: an inf or NaN fails the
# check that reads it, without a warning
@np.errstate(over="ignore", invalid="ignore")
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

    n = cfg.n_nodes
    bound = cfg.reward_pool + cfg.committee_size * cfg.committee_bonus
    # A round's exact pay total exceeds the exact pool plus bonuses only by
    # rounding. With u = 2**-53: the shares divided by rounded totals, alpha
    # and 1 - alpha, and the products give at most 6u; each fairness factor's
    # Jain ratio at most 8u, and its product with the sigmoid u; the last
    # product and add 2u. With the two roundings in `bound`, the total stays
    # below bound * (1 + 19u) < bound + 19 ulp(bound). 32 ulps spare the
    # second-order terms; at the default bound of 1400 that is 7.3e-12.
    pay_limit = bound + 32 * math.ulp(bound)
    caps_ok = override_ok = finite_ok = quality_ok = in_order = metrics_in_order = True
    paid_ok = size_ok = gap_ok = penalty_ok = metrics_ok = True
    # the metrics.csv row each whole, in-order round of rounds.csv implies, at
    # index t; None for a round with a non-finite cell, [] for one whose exact
    # sums overflow (no run writes such a round, so [] matches no row)
    implied_metrics: list[list | None] = []
    metrics_mismatch = summary_mismatch = ""
    # the run state after the whole rounds read so far, which summary.json reports
    world = new_world(cfg)
    # row k of rounds.csv is round k // n_nodes, node k % n_nodes; of metrics.csv, round k
    rounds_rows = metrics_rows = 0
    try:
        # the manifest must hash exactly the run's files; no other name is read
        bad = [f"{name} {'not hashed' if name in RUN_FILES else 'not a run file'}"
               for name in sorted(set(digests) ^ set(RUN_FILES))]
        bad += [name for name in RUN_FILES
                if name in digests and _sha256(out_dir / name) != digests[name]]
        for block in _csv_blocks(out_dir / "rounds.csv", ROUNDS_COLUMNS, ROUNDS_TYPES, n):
            t_col, node_col, roles, *floats, committee_col, detected_col = block
            contribution, _, q, rep, penalty, reward = floats = np.stack(floats)
            t, m = rounds_rows // n, len(t_col)
            if in_order and t and t_col[0] == t - 1:
                # round t - 1 runs on into this block, so it is not whole
                implied_metrics[-1] = None
            in_order = in_order and t_col == [t] * m and node_col == list(range(m))
            finite = np.isfinite(floats).all(axis=0)
            # in order, every row is of round t
            r_max = cfg.r_max(t) if in_order else np.fromiter(map(cfg.r_max, t_col), float, m)
            caps_ok &= bool(np.all((0.0 <= rep) & (rep <= r_max)))
            override_ok &= bool(np.all((contribution != 0.0) | (reward == 0.0)))
            finite_ok &= bool(finite.all())
            quality_ok &= bool(np.all(
                q[finite] == qualities(contribution[finite], cfg.c_min, cfg.c_max)))
            rounds_rows += m
            if not in_order or m < n:
                # the checks below compare rows, so they read whole rounds only
                continue
            pop = world.nodes
            members, detected = np.flatnonzero(committee_col), np.array(detected_col, dtype=bool)
            try:
                paid_ok &= exact_sum(reward) <= pay_limit
            except (OverflowError, ValueError):  # the total overflows, or adds inf to -inf
                paid_ok = False
            size_ok &= members.size <= cfg.committee_size
            # off cooldown: no committee seat within cooldown_period rounds before t
            gap_ok &= bool(np.all(pop.cooldown[members] == 0))
            penalty_ok &= bool(np.all(np.where(
                detected, (0.0 <= penalty) & (penalty <= pop.reputation / 2.0),
                penalty == 0.0)[finite]))
            roles = np.array(roles)
            malicious = roles == Role.MALICIOUS.value
            implied_metrics.append(None)
            if finite.all():
                try:
                    implied_metrics[t] = _metrics_row(
                        t, jain_index(reward, cfg.epsilon), gini(reward), sum(detected_col), rep,
                        reward, roles == Role.HONEST.value, malicious)
                except OverflowError:
                    implied_metrics[t] = []
            stake, stake_deducted = deduct_stakes(pop.stake, detected, cfg.stake_penalty_factor)
            cooldown = committee.update_cooldowns(pop, members, cfg)
            world.tally_round(pop.with_columns(reputation=rep, malicious=malicious, stake=stake,
                                               total_reward=pop.total_reward + reward,
                                               cooldown=cooldown),
                              np.flatnonzero(detected).tolist(), stake_deducted)
        if in_order and finite_ok and rounds_rows == cfg.rounds * n:
            try:
                recorded = json.loads((out_dir / "summary.json").read_text())
            except ValueError:
                recorded = None
            try:
                summary_mismatch = next((field for field, value in _summary_doc(world).items()
                                         if not isinstance(recorded, dict)
                                         or recorded.get(field) != value), "")
            except (OverflowError, ValueError):  # a sum of the totals overflows, or adds inf to -inf
                summary_mismatch = "overflow"
        # any block size gives the same verdicts
        for block in _csv_blocks(out_dir / "metrics.csv", METRICS_COLUMNS, METRICS_TYPES, n):
            # an int cell is finite, and may lie beyond the double range
            finite_ok &= bool(np.isfinite(
                [column for column, kind in zip(block, METRICS_TYPES) if kind is float]).all())
            for row in map(list, zip(*block)):
                metrics_in_order = metrics_in_order and row[0] == metrics_rows
                implied = (implied_metrics[metrics_rows] if metrics_in_order
                           and metrics_rows < len(implied_metrics) else None)
                if metrics_ok and implied is not None and row != implied:
                    metrics_ok = False
                    column = next((c for c, a, b in zip(METRICS_COLUMNS, row, implied) if a != b),
                                  "overflow")
                    metrics_mismatch = f"round {row[0]}: {column}"
                metrics_rows += 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # Each check holds only when its comparison is true, so a NaN fails it; the
    # quality, penalty and metrics checks skip rows with a non-finite cell. The
    # checks that compare rows stop at the first block of rounds.csv that is not
    # round t's rows in node order, the metrics check also at the first
    # metrics.csv row out of order; the coverage check fails such files.
    in_order = in_order and metrics_in_order
    checks = [
        ("file_hashes_match_manifest", not bad, ", ".join(bad)),
        (f"reward_conservation_per_round (<= {bound})", paid_ok, ""),
        ("reputation_within_caps", caps_ok, ""),
        ("zero_contribution_zero_reward", override_ok, ""),
        (f"committee_gap_exceeds_cooldown (> {cfg.cooldown_period})", gap_ok, ""),
        ("numeric_cells_finite", finite_ok, ""),
        ("quality_is_sigmoid_of_contribution", quality_ok, ""),
        ("penalty_only_if_detected_at_most_half_reputation", penalty_ok, ""),
        (f"committee_within_size (<= {cfg.committee_size})", size_ok, ""),
        ("metrics_recomputed_from_rounds", metrics_ok, metrics_mismatch),
        ("summary_recomputed_from_rounds", not summary_mismatch, summary_mismatch),
        (f"rows_cover_every_round_and_node ({cfg.rounds} rounds x {cfg.n_nodes} nodes)",
         in_order and rounds_rows == cfg.rounds * cfg.n_nodes and metrics_rows == cfg.rounds,
         f"{rounds_rows} rounds.csv rows, {metrics_rows} metrics.csv rows"
         + ("" if in_order else ", out of order")),
    ]
    for name, ok, detail in checks:
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    return 0 if all(ok for _, ok, _ in checks) else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so that `main`
    reports them as one `error:` line and exit 2, like any other bad input.
    Its subparsers are of this class too (`add_subparsers` builds them with
    the parser's own class)."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, DomainError, OSError, MemoryError) as exc:
        # a --seeds range too long to list raises a MemoryError with no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except DegenerateContract as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
