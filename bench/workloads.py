"""The four benchmark workloads.

Each workload turns the benchmark seed into fixed inputs when it is built,
does its work in `run` (the timed part, one repetition) and checks the
outputs in `check` (untimed). `unit_call` names the call that splits a
repetition into `units` calls, which the harness times one by one. Every workload is a closed loop: one client,
one thread, the next repetition starts when the previous one has finished.

The program is reached only through public flmech names looked up at call
time (`engine.run_simulation`, `cli.main`, `contract.solve_constrained`), so
the wrappers that `spans.Tracer` installs see every call.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from flmech import cli, contract, engine
from flmech.contract import DegenerateContract, SolverError
from flmech.core import ConfigError, config_to_dict, load_config, validate_config

# Exceptions that count as a failed operation rather than a harness crash.
OPERATION_ERRORS = (ConfigError, SolverError, DegenerateContract)


@dataclass
class Checked:
    """Outcome of checking one repetition."""
    attempted: int
    failed: int
    digest: str                     # must repeat across repetitions of one seed
    problems: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)   # must repeat too
    files: dict[str, str] = field(default_factory=dict)      # informational SHA-256


def _derived_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for _ in range(count)]


def _attempt(fn, *args, **kwargs):
    """(result, None) or (None, error text) for the operation errors."""
    try:
        return fn(*args, **kwargs), None
    except OPERATION_ERRORS as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _separation_problems(summary: dict) -> list[str]:
    """Honest nodes must out-earn and out-rank malicious ones."""
    problems = []
    if not summary["honest_total_reward"] > summary["malicious_total_reward"]:
        problems.append("honest total reward does not exceed malicious total reward")
    if not summary["honest_mean_reputation"] > summary["malicious_mean_reputation"]:
        problems.append("honest mean reputation does not exceed malicious mean reputation")
    return problems


def _records_digest(results) -> str:
    """SHA-256 over every per-node value and id list of every round record."""
    h = hashlib.sha256()
    for result in results:
        for rec in result.records:
            for values in (rec.contributions, rec.completion_times, rec.reputation_after,
                           rec.penalties, rec.rewards):
                h.update(np.asarray(values, dtype=np.float64).tobytes())
            h.update(np.asarray(rec.committee + [-1] + rec.detected, dtype=np.int64).tobytes())
    return h.hexdigest()


class _Simulations:
    """Library `run_simulation` over a list of (config, seed) points."""

    def _setup(self, points: list) -> None:
        self.points = points
        self.node_rounds = sum(cfg.n_nodes * cfg.rounds for cfg, _ in points)
        self.rounds_per_run = points[0][0].rounds
        self.units = self.rounds_per_run * len(points)

    @staticmethod
    def unit_call():
        return engine, "run_round"

    def run(self, out: Path):
        return [_attempt(engine.run_simulation, cfg, seed=seed) for cfg, seed in self.points]

    def check(self, outputs, out: Path) -> Checked:
        problems, failed = [], 0
        for (cfg, seed), (result, error) in zip(self.points, outputs):
            label = f"m={cfg.malicious_percent} n={cfg.n_nodes} T={cfg.rounds} seed={seed}"
            found = [error] if error else _separation_problems(result.summary())
            problems += [f"{label}: {p}" for p in found]
            failed += bool(found)
        ok = [result for result, error in outputs if error is None]
        return Checked(len(outputs), failed, _records_digest(ok), problems)


class PaperSweep(_Simulations):
    """The README's `flmech sweep` grid: malicious_percent x derived seeds."""
    name = "paper_sweep"
    PERCENTS = [0.10, 0.15, 0.20, 0.25, 0.30]
    SEEDS = 2

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool):
        base = load_config(root / "configs" / "default.cfg")
        percents, n_seeds = self.PERCENTS, self.SEEDS
        if smoke:
            base, percents, n_seeds = replace(base, n_nodes=20, rounds=12), [0.10, 0.30], 1
        seeds = _derived_seeds(seed, n_seeds)
        self._setup([(replace(base, malicious_percent=m), s) for m in percents for s in seeds])
        self.config = {"base": config_to_dict(base),
                       "grid": {"malicious_percent": percents}, "seeds": seeds}

    def throughput(self, wall: float) -> dict:
        return {"runs_per_s": (len(self.points) / wall, "1/s")}


class WidePopulation(_Simulations):
    """Many nodes, few rounds, no export."""
    name = "wide_population"

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool):
        n, rounds = (60, 8) if smoke else (2000, 30)
        cfg = replace(load_config(root / "configs" / "default.cfg"), n_nodes=n, rounds=rounds)
        sim_seed = _derived_seeds(seed, 1)[0]
        self._setup([(cfg, sim_seed)])
        self.config = {"config": config_to_dict(replace(cfg, seed=sim_seed))}

    def throughput(self, wall: float) -> dict:
        return {}


def _nonfinite_json(value, path="") -> list[str]:
    if isinstance(value, float):
        return [] if math.isfinite(value) else [f"{path}={value}"]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _nonfinite_json(v, f"{path}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _nonfinite_json(v, f"{path}[{i}]")]
    return []


def _csv_problems(path: Path) -> tuple[int, list[str]]:
    """(data rows, non-finite cells) of a CSV whose cells are numbers or the role tag."""
    problems, rows = [], 0
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            rows += 1
            for name, cell in zip(header, row):
                if name == "role":
                    continue
                try:
                    finite = math.isfinite(float(cell))
                except ValueError:
                    finite = False
                if not finite:
                    problems.append(f"{path.name} row {rows} {name}={cell!r}")
    return rows, problems


class LongHorizon:
    """`flmech simulate` to a run directory, then `flmech verify`, in-process."""
    name = "long_horizon"
    CSV_FILES = ("rounds.csv", "metrics.csv")

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool):
        n, rounds = (20, 24) if smoke else (100, 720)
        cfg = replace(load_config(root / "configs" / "default.cfg"),
                      n_nodes=n, rounds=rounds, seed=_derived_seeds(seed, 1)[0])
        validate_config(cfg)
        self.work = work
        self.config_file = "long_horizon.cfg"
        lines = [f"{k} = {v}" for k, v in config_to_dict(cfg).items() if v is not None]
        (work / self.config_file).write_text("\n".join(lines) + "\n")
        self.node_rounds = cfg.n_nodes * cfg.rounds
        self.rounds_per_run = cfg.rounds
        self.units = cfg.rounds
        self.config = {"config": config_to_dict(cfg)}

    @staticmethod
    def unit_call():
        return engine, "run_round"

    def run(self, out: Path):
        # Relative paths keep manifest.json, and so the bytes written, the
        # same in every checkout.
        stdout = io.StringIO()
        cwd = Path.cwd()
        os.chdir(self.work)
        try:
            with contextlib.redirect_stdout(stdout):
                simulate_rc = cli.main(["simulate", "--config", self.config_file,
                                        "--out", out.name])
                verify_rc = cli.main(["verify", "--out", out.name]) if simulate_rc == 0 else None
        finally:
            os.chdir(cwd)
        return simulate_rc, verify_rc, stdout.getvalue()

    def check(self, outputs, out: Path) -> Checked:
        simulate_rc, verify_rc, text = outputs
        problems, counters, files = [], {}, {}
        if simulate_rc != 0:
            problems.append(f"flmech simulate exited {simulate_rc}")
        elif verify_rc != 0:
            problems.append(f"flmech verify exited {verify_rc}: {text.strip()}")
        else:
            rows = 0
            for name in self.CSV_FILES:
                n_rows, bad = _csv_problems(out / name)
                rows += n_rows
                problems += bad[:5]
                files[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("summary.json", "manifest.json"):
                problems += [f"{name}{p}" for p in
                             _nonfinite_json(json.loads((out / name).read_text()))[:5]]
            problems += _separation_problems(json.loads((out / "summary.json").read_text()))
            counters = {"cli.bytes_written": sum(p.stat().st_size for p in out.iterdir()),
                        "cli.rows_verified": rows}
        digest = hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()
        return Checked(1, int(bool(problems)), digest, problems, counters, files)

    def throughput(self, wall: float) -> dict:
        return {"run_dir_s": (wall, "s")}


class ContractGrid:
    """`solve_constrained` plus `optimal_contract_closed_form` over a config grid.

    Only reward_pool / n_nodes moves the solution; from 24 upwards the stake
    equation has no positive solution, so the grid keeps that ratio at most
    12, the paper's default operating point (1200 / 100).
    """
    name = "contract_grid"
    REWARD_POOL = [300.0, 600.0, 1200.0]
    HISTORY_DECAY = [0.5, 0.7, 0.9]
    N_NODES = [100, 200, 400, 800]
    GAP_TOLERANCE = 1e-3

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool):
        base = load_config(root / "configs" / "default.cfg")
        grid = [(p, z, n) for p in self.REWARD_POOL for z in self.HISTORY_DECAY for n in self.N_NODES]
        random.Random(seed).shuffle(grid)
        if smoke:
            grid = grid[:2]
        self.points = [replace(base, reward_pool=p, history_decay=z, n_nodes=n) for p, z, n in grid]
        self.node_rounds = 0
        self.rounds_per_run = 0
        self.units = len(self.points)
        self.config = {"base": config_to_dict(base),
                       "grid_order": [dict(zip(("reward_pool", "history_decay", "n_nodes"), g))
                                      for g in grid]}

    @staticmethod
    def unit_call():
        return contract, "solve_constrained"

    def run(self, out: Path):
        return [_attempt(self._solve, cfg) for cfg in self.points]

    @staticmethod
    def _solve(cfg):
        validate_config(cfg)
        return contract.solve_constrained(cfg), contract.optimal_contract_closed_form(cfg)

    def check(self, outputs, out: Path) -> Checked:
        problems, failed = [], 0
        h = hashlib.sha256()
        for cfg, (result, error) in zip(self.points, outputs):
            label = f"reward_pool={cfg.reward_pool} history_decay={cfg.history_decay} n={cfg.n_nodes}"
            if error:
                found = [error]
            else:
                sol, closed = result
                found = self._problems(sol, closed)
                h.update(repr((sol.c_star, sol.s_star, sol.r_star, sol.profit,
                               sol.diagnostics["iterations"], closed.c_star, closed.s_star,
                               closed.r_star)).encode())
            problems += [f"{label}: {p}" for p in found]
            failed += bool(found)
        return Checked(len(outputs), failed, h.hexdigest(), problems)

    def _problems(self, sol, closed) -> list[str]:
        problems = []
        grid_profit = sol.diagnostics["grid_profit"]
        if not abs(sol.profit - grid_profit) <= self.GAP_TOLERANCE:
            problems.append(f"|profit - grid_profit| = {abs(sol.profit - grid_profit)}")
        if sol.ir_satisfaction_rate != 1.0:
            problems.append(f"ir_satisfaction_rate = {sol.ir_satisfaction_rate}")
        values = (sol.c_star, sol.s_star, sol.r_star, sol.profit,
                  closed.c_star, closed.s_star, closed.r_star)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite contract terms {values}")
        return problems

    def throughput(self, wall: float) -> dict:
        return {"solves_per_s": (len(self.points) / wall, "1/s")}


WORKLOADS = {cls.name: cls for cls in (PaperSweep, LongHorizon, WidePopulation, ContractGrid)}
