"""Command-line front end.

Subcommands:
  simulate      run one seeded simulation and export per-round CSVs + summary
  sweep         run a parameter grid x seed matrix into one long-format CSV
  contract-opt  solve the optimal-contract problem and print a JSON report
  verify        recheck the invariant suite over a simulate output directory

Exit codes: 0 success, 1 invariant or solver failure, 2 usage/config error.
The output directory can also be set with the FLMECH_OUT environment
variable; an explicit --out wins.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .contract import DegenerateContract, SolverError, optimal_contract_closed_form, solve_constrained
from .core import (
    ConfigError, Role, SystemConfig, _parse_value, config_to_dict, load_config, validate_config,
)
from .engine import WorldState, run_simulation
from .metrics import mean

SCHEMA_VERSION = 1
ROUNDS_COLUMNS = ["round", "node_id", "role", "contribution", "tau", "quality",
                  "reputation", "penalty", "reward", "committee", "detected"]
METRICS_COLUMNS = ["round", "jain", "gini", "detected_count", "honest_mean_rep",
                   "malicious_mean_rep", "honest_mean_reward", "malicious_mean_reward"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_cfg(config_path: str | None, seed: int | None) -> SystemConfig:
    cfg = load_config(config_path) if config_path else validate_config(SystemConfig())
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


def _rounds_rows(state: WorldState):
    roles = [nd.role.value for nd in state.nodes]
    for rec in state.records:
        committee = set(rec.committee)
        detected = set(rec.detected)
        for i in range(len(roles)):
            yield [rec.round, i, roles[i], rec.contributions[i], rec.completion_times[i],
                   rec.qualities[i], rec.reputation_after[i], rec.penalties[i],
                   rec.rewards[i], int(i in committee), int(i in detected)]


def _metrics_rows(state: WorldState):
    honest = [nd.id for nd in state.nodes if nd.role is Role.HONEST]
    malicious = [nd.id for nd in state.nodes if nd.role is Role.MALICIOUS]
    for rec in state.records:
        yield [rec.round, rec.jain_fairness, rec.gini, len(rec.detected),
               mean([rec.reputation_after[i] for i in honest]),
               mean([rec.reputation_after[i] for i in malicious]),
               mean([rec.rewards[i] for i in honest]),
               mean([rec.rewards[i] for i in malicious])]


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


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
        "columns": {"rounds.csv": ROUNDS_COLUMNS, "metrics.csv": METRICS_COLUMNS},
        "files": {name: _sha256(out_dir / name) for name in sorted(file_names)},
    }
    if extra:
        manifest.update(extra)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _resolve_out(args) -> Path:
    out = args.out or os.environ.get("FLMECH_OUT") or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def export_simulation(state: WorldState, out_dir: Path,
                      config_path: str | None = None) -> None:
    """Write one run's rounds.csv, metrics.csv, summary.json and manifest.json
    into an existing directory."""
    _write_csv(out_dir / "rounds.csv", ROUNDS_COLUMNS, _rounds_rows(state))
    _write_csv(out_dir / "metrics.csv", METRICS_COLUMNS, _metrics_rows(state))
    summary = state.summary()
    summary["first_detection_round"] = {str(k): v for k, v in summary["first_detection_round"].items()}
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    seed = state.rng.seed
    _write_manifest(out_dir, "simulate", replace(state.cfg, seed=seed), config_path, [seed],
                    ["rounds.csv", "metrics.csv", "summary.json"])
    print(f"simulate: wrote rounds.csv, metrics.csv, summary.json, manifest.json to {out_dir}")


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args.config, args.seed)
    out_dir = _resolve_out(args)
    export_simulation(run_simulation(cfg), out_dir, args.config)
    return 0


def _parse_grid(pairs: list[str]) -> dict[str, list]:
    valid = {f.name for f in fields(SystemConfig)}
    grid = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--grid expects key=v1,v2,... got '{pair}'")
        key, _, rest = pair.partition("=")
        key = key.strip()
        if key not in valid:
            raise ConfigError(f"unknown grid key '{key}'")
        grid[key] = [_parse_value(key, tok) for tok in rest.split(",")]
    return grid


def _parse_seeds(raw: str) -> list[int]:
    raw = raw.strip()
    if ":" in raw:
        lo, _, hi = raw.partition(":")
        return list(range(int(lo), int(hi)))
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def cmd_sweep(args) -> int:
    cfg = _load_cfg(args.config, None)
    grid = _parse_grid(args.grid)
    seeds = _parse_seeds(args.seeds)
    out_dir = _resolve_out(args)

    keys = sorted(grid)
    combos = [()]
    for key in keys:
        combos = [c + (v,) for c in combos for v in grid[key]]

    header = keys + ["seed"] + METRICS_COLUMNS
    rows = []
    run_summaries = []
    for combo in combos:
        point_cfg = validate_config(replace(cfg, **dict(zip(keys, combo))))
        for seed in seeds:
            result = run_simulation(point_cfg, seed=seed)
            for metric_row in _metrics_rows(result):
                rows.append(list(combo) + [seed] + metric_row)
            s = result.summary()
            run_summaries.append({
                "grid": dict(zip(keys, combo)), "seed": seed,
                "honest_total_reward": s["honest_total_reward"],
                "malicious_total_reward": s["malicious_total_reward"],
                "cumulative_reward_gini": s["cumulative_reward_gini"],
                "honest_reward_gini": s["honest_reward_gini"],
            })
    _write_csv(out_dir / "sweep.csv", header, rows)
    (out_dir / "sweep_summary.json").write_text(
        json.dumps(run_summaries, indent=2, sort_keys=True) + "\n")
    _write_manifest(out_dir, "sweep", cfg, args.config, seeds,
                    ["sweep.csv", "sweep_summary.json"],
                    extra={"grid": {k: grid[k] for k in keys},
                           "runs": len(combos) * len(seeds)})
    print(f"sweep: {len(combos) * len(seeds)} runs -> {out_dir / 'sweep.csv'}")
    return 0


def cmd_contract_opt(args) -> int:
    cfg = _load_cfg(args.config, args.seed)
    solution = solve_constrained(cfg)
    closed = optimal_contract_closed_form(cfg)
    doc = {
        "c_star": solution.c_star,
        "s_star": solution.s_star,
        "r_star": solution.r_star,
        "profit": solution.profit,
        "ir_satisfaction_rate": solution.ir_satisfaction_rate,
        "min_utility": solution.min_utility,
        "closed_form": {"c_star": closed.c_star, "s_star": closed.s_star,
                        "r_star": closed.r_star, "interior_exists": closed.interior_exists},
        "diagnostics": solution.diagnostics,
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.out:
        out_dir = _resolve_out(args)
        (out_dir / "contract.json").write_text(text + "\n")
        _write_manifest(out_dir, "contract-opt", cfg, args.config, [cfg.seed], ["contract.json"])
    return 0


def _read_csv(path: Path, expected_header: list[str]) -> list[dict]:
    if not path.exists():
        raise FileNotFoundError(f"missing file: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"corrupt file (empty): {path}")
        if header != expected_header:
            raise ValueError(f"corrupt file (header mismatch): {path}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"corrupt file (row {lineno} has {len(row)} fields): {path}")
            rows.append(dict(zip(header, row)))
    return rows


def cmd_verify(args) -> int:
    out_dir = Path(args.out or os.environ.get("FLMECH_OUT") or "out")
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        print(f"error: no manifest.json in {out_dir}", file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())
    cfg_dict = manifest["config"]
    pool = cfg_dict["reward_pool"]
    k = cfg_dict["committee_size"]
    bonus = cfg_dict["committee_bonus"]
    r_max_early = cfg_dict["r_max_early"]
    r_max_late = cfg_dict["r_max_late"]
    switch_round = cfg_dict["r_max_switch_round"]

    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append((name, ok, detail))

    try:
        hash_ok, bad = True, []
        for name, digest in manifest["files"].items():
            path = out_dir / name
            if not path.exists():
                raise FileNotFoundError(f"missing file: {path}")
            if _sha256(path) != digest:
                hash_ok = False
                bad.append(name)
        check("file_hashes_match_manifest", hash_ok, ", ".join(bad))

        rows = _read_csv(out_dir / "rounds.csv", ROUNDS_COLUMNS)
        _read_csv(out_dir / "metrics.csv", METRICS_COLUMNS)

        per_round_paid: dict[int, float] = {}
        conservation_ok, caps_ok, override_ok = True, True, True
        committee_rounds: dict[int, list[int]] = {}
        for row in rows:
            t = int(row["round"])
            reward = float(row["reward"])
            per_round_paid[t] = per_round_paid.get(t, 0.0) + reward
            rep = float(row["reputation"])
            cap = r_max_early if t <= switch_round else r_max_late
            if rep < 0 or rep > cap + 1e-9:
                caps_ok = False
            if float(row["contribution"]) == 0.0 and reward != 0.0:
                override_ok = False
            if int(row["committee"]):
                committee_rounds.setdefault(int(row["node_id"]), []).append(t)
        bound = pool + k * bonus
        for t, paid in per_round_paid.items():
            if paid > bound + 1e-9:
                conservation_ok = False
        consecutive_ok = True
        for ts in committee_rounds.values():
            ts = sorted(ts)
            if any(b - a <= 1 for a, b in zip(ts, ts[1:])):
                consecutive_ok = False
        check(f"reward_conservation_per_round (<= {bound})", conservation_ok)
        check("reputation_within_caps", caps_ok)
        check("zero_contribution_zero_reward", override_ok)
        check("no_consecutive_committee_membership", consecutive_ok)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    return 1 if failures else 0


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
    copt.add_argument("--seed", type=int, help="override the config seed")
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
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, DegenerateContract) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
