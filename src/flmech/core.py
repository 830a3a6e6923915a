"""Domain types, configuration, validation, and the deterministic RNG contract.

Everything downstream (behavior sampling, committee selection, reputation,
detection, rewards) works on the types defined here. All monetary and
reputation quantities are plain floats; there is no fixed-point arithmetic.
"""

import math
import operator
import zlib
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import Optional, get_args

import numpy as np


class ConfigError(ValueError):
    """Raised by validate_config; message lists every violated constraint."""


class ScheduleError(ConfigError):
    """The attack schedule cannot run over the configured rounds."""


class DomainError(ValueError):
    """An argument lies outside a function's mathematical domain."""


def sigmoid(x: float) -> float:
    """Logistic function 1/(1+e^-x), overflow-safe for large |x|."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


class Role(Enum):
    HONEST = "honest"
    MALICIOUS = "malicious"


class PatternKind(Enum):
    NORMAL = "normal"
    FALSE_HIGH = "false_high"
    ZERO = "zero"
    RANDOM_MIX = "random_mix"


@dataclass
class Node:
    """One participant's full economic state.

    `id` is the node's index in the population: every round step relies on
    `nodes[i].id == i`. The `role` tag is ground truth for the simulation
    only; mechanism code (committee, detection, rewards) never reads it.
    """
    id: int
    stake: float
    reputation: float
    total_reward: float = 0.0
    participation: int = 0
    cooldown: int = 0
    # The last window+1 contributions, oldest first; once the round's
    # contributions are collected, the last entry is the current round's.
    # Nothing in the mechanism looks further back than that.
    contribution_history: list[float] = field(default_factory=list)
    role: Role = Role.HONEST


@dataclass(frozen=True, eq=False)
class Population(Sequence):
    """Every node's state as columns: entry i of each column is node i's.

    `history` holds the last k <= window+1 contributions of every node, one
    row per round, oldest first; every node appends every round, so all
    histories have the same length. `malicious` is the role tag, fixed when
    the population is built. The columns are read-only: a round computes new
    columns and swaps in a new population (`dataclasses.replace`).

    The population is also a read-only sequence of `Node`s, each built from
    the columns when it is indexed.
    """
    stake: np.ndarray
    reputation: np.ndarray
    total_reward: np.ndarray
    participation: np.ndarray
    cooldown: np.ndarray
    history: np.ndarray
    malicious: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.stake)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i, n = operator.index(i), len(self)
        if not -n <= i < n:
            raise IndexError(f"node {i} out of range for {n} nodes")
        i %= n
        return Node(id=i, stake=float(self.stake[i]), reputation=float(self.reputation[i]),
                    total_reward=float(self.total_reward[i]),
                    participation=int(self.participation[i]), cooldown=int(self.cooldown[i]),
                    contribution_history=self.history[:, i].tolist(),
                    role=Role.MALICIOUS if self.malicious[i] else Role.HONEST)

    @classmethod
    def from_nodes(cls, nodes: Sequence[Node]) -> "Population":
        """The columns of `nodes`, given in id order. Every node must hold a
        history of the same length."""
        lengths = {len(nd.contribution_history) for nd in nodes}
        if len(lengths) > 1:
            raise ValueError(f"histories differ in length: {sorted(lengths)}")
        k = lengths.pop() if lengths else 0
        return cls(stake=np.array([nd.stake for nd in nodes], dtype=float),
                   reputation=np.array([nd.reputation for nd in nodes], dtype=float),
                   total_reward=np.array([nd.total_reward for nd in nodes], dtype=float),
                   participation=np.array([nd.participation for nd in nodes], dtype=np.int64),
                   cooldown=np.array([nd.cooldown for nd in nodes], dtype=np.int64),
                   history=np.array([nd.contribution_history for nd in nodes],
                                    dtype=float).reshape(len(nodes), k).T.copy(),
                   malicious=np.array([nd.role is Role.MALICIOUS for nd in nodes], dtype=bool))


@dataclass
class SystemConfig:
    """Simulation parameter ledger.

    The first block mirrors the published parameter table one field per
    symbol; the second block holds implementation-level defaults that the
    mechanism needs but the table does not pin down. All fields are plain
    values so a config is trivially copyable and serializable.
    """
    # --- parameter table ---
    initial_stake: float = 100.0          # S_i
    initial_reputation: float = 100.0     # r_i^0
    c_min: float = 0.0                    # C_min
    c_max: float = 10.0                   # C_max
    gamma: float = 0.5                    # reputation decay exponent (committee weighting)
    r_max_early: float = 300.0            # reputation cap while t <= r_max_switch_round
    r_max_late: float = 500.0             # reputation cap afterwards
    r_max_switch_round: int = 5
    epsilon: float = 1e-8                 # division guard
    cooldown_period: int = 3              # cd
    strata: int = 3                       # L
    committee_bonus: float = 40.0         # B_cmm
    base_decay: float = 0.88              # delta_b
    decay_compensation: float = 0.07      # lambda_p
    window: int = 5                       # tau (recent historical rounds)
    default_stability: float = 0.8        # tau_stab, for nodes with short history
    contribution_bonus: float = 50.0      # X_c
    stability_bonus: float = 30.0         # X_s
    reputation_penalty_factor: float = 0.3  # lambda_r
    stake_penalty_factor: float = 0.1     # lambda_s
    history_decay: float = 0.9            # zeta
    reward_pool: float = 1200.0           # B
    n_nodes: int = 100                    # n
    stake_weight: float = 0.4             # lambda_stake
    committee_size: int = 5               # K
    malicious_percent: float = 0.15       # m
    eta_switch: int = 5                   # first attack-phase boundary
    rounds: int = 90

    # --- design-decision defaults ---
    f_scale: float = 100.0                # reputation scale inside the alpha weight
    gamma_c: float = 0.5                  # effort-cost coefficient
    t_max: Optional[float] = None         # submission deadline; None = no timeout
    theta_low: float = 0.3                # detection: persistent-low threshold
    theta_fluct: float = 2.0              # detection: per-round outlier threshold
    theta_jump: float = 6.0               # detection: sudden-change threshold
    eps_std: float = 1.2                  # detection: std floor for the jump test
    false_high_mean: float = 9.5          # false-high attack distribution (gaussian)
    false_high_std: float = 0.25
    fluct_low: float = 0.9                # multiplicative fluctuation range for honest draws
    fluct_high: float = 1.1
    tau_low: float = 0.5                  # completion-time range (uniform)
    tau_high: float = 1.5
    normal_mu: float = 7.0                # honest contribution gaussian
    normal_sigma: float = 1.0
    random_mix_p_high: float = 0.6        # probability of a false-high draw in the mixed attack
    contract_accounting: bool = False     # accumulate (V - R) margins in the publisher ledger
    attack_schedule: Optional[list[tuple[int, int, str]]] = None  # explicit phase table override
    seed: int = 42

    def r_max(self, t: int) -> float:
        """Reputation cap schedule for round t."""
        return self.r_max_early if t <= self.r_max_switch_round else self.r_max_late


# Config file values are parsed against the dataclass field types.
_CONFIG_FIELDS = {f.name: f for f in fields(SystemConfig)}


def validate_config(cfg: SystemConfig) -> SystemConfig:
    """Check every config invariant; return the config if all hold.

    Raises ConfigError naming each violated constraint (all of them, not
    just the first).
    """
    problems = []
    for f in fields(SystemConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{f.name}: must be finite")
    if cfg.strata < 1:
        problems.append("strata: L must be >= 1")
    if cfg.n_nodes < 1:
        problems.append("n_nodes: population must be >= 1")
    if cfg.committee_size < 1:
        problems.append("committee_size: must be >= 1")
    if cfg.committee_size > cfg.n_nodes:
        problems.append("committee_size: committee size exceeds population")
    if not (0.0 < cfg.gamma <= 1.0):
        problems.append("gamma: must lie in (0,1]")
    if not (0.0 < cfg.history_decay < 1.0):
        problems.append("history_decay: zeta must lie in (0,1)")
    if cfg.base_decay + cfg.decay_compensation > 1.0:
        problems.append("base_decay/decay_compensation: delta_b + lambda_p must be <= 1")
    if not (0.0 <= cfg.malicious_percent <= 1.0):
        problems.append("malicious_percent: must lie in [0,1]")
    if cfg.c_max <= cfg.c_min:
        problems.append("c_max: must exceed c_min")
    if cfg.window < 1:
        problems.append("window: must be >= 1")
    if cfg.rounds < 0:
        problems.append("rounds: must be >= 0")
    if cfg.cooldown_period < 0:
        problems.append("cooldown_period: must be >= 0")
    if cfg.f_scale <= 0:
        problems.append("f_scale: must be positive")
    if cfg.gamma_c <= 0:
        problems.append("gamma_c: must be positive")
    if cfg.epsilon <= 0:
        problems.append("epsilon: must be positive")
    if cfg.fluct_low > cfg.fluct_high:
        problems.append("fluct_low/fluct_high: invalid range")
    if cfg.tau_low > cfg.tau_high or cfg.tau_low <= 0:
        problems.append("tau_low/tau_high: completion times must be a positive range")
    if not (0.0 <= cfg.random_mix_p_high <= 1.0):
        problems.append("random_mix_p_high: must lie in [0,1]")
    nonneg = [
        "initial_stake", "initial_reputation", "r_max_early", "r_max_late",
        "committee_bonus", "base_decay", "decay_compensation", "default_stability",
        "contribution_bonus", "stability_bonus", "reputation_penalty_factor",
        "stake_penalty_factor", "reward_pool", "stake_weight", "theta_low",
        "theta_fluct", "theta_jump", "eps_std", "normal_sigma", "false_high_std",
        "eta_switch",
    ]
    for name in nonneg:
        if getattr(cfg, name) < 0:
            problems.append(f"{name}: must be non-negative")
    if cfg.t_max is not None and cfg.t_max <= 0:
        problems.append("t_max: must be positive when set")
    try:
        attack_patterns(cfg)
    except ScheduleError as exc:
        problems.append(str(exc))
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def attack_patterns(cfg: SystemConfig) -> list[PatternKind]:
    """The malicious nodes' pattern for each round: index t holds round t's.

    Without an explicit `attack_schedule` the canonical four-phase adversary
    runs: false-high, zero, mixed, zero. For a 90-round run its boundaries
    are {eta_switch, 30, 60, 90}; other spans keep the first boundary at
    eta_switch and scale the later two proportionally (a phase may be
    empty). An explicit table must name known patterns, and its phases
    (start inclusive, end exclusive) must partition [0, rounds). A
    zero-round run never consults the schedule and gets an empty list.

    Raises ScheduleError for an unknown pattern name, phases that do not
    partition the round span, or a default schedule with rounds < eta_switch.
    """
    rounds = cfg.rounds
    if rounds == 0:
        return []
    if cfg.attack_schedule is None:
        eta = cfg.eta_switch
        if rounds < eta:
            raise ScheduleError(f"rounds ({rounds}) must be >= eta_switch ({eta})")
        b2 = max(eta, round(rounds * 30 / 90))
        b3 = max(b2, round(rounds * 60 / 90))
        return ([PatternKind.FALSE_HIGH] * eta + [PatternKind.ZERO] * (b2 - eta)
                + [PatternKind.RANDOM_MIX] * (b3 - b2) + [PatternKind.ZERO] * (rounds - b3))
    kinds = {kind.value: kind for kind in PatternKind}
    patterns: list[PatternKind] = []
    for start, end, name in cfg.attack_schedule:
        if name not in kinds:
            raise ScheduleError(f"attack_schedule: unknown pattern '{name}'"
                                f" (expected one of {', '.join(kinds)})")
        if start != len(patterns) or not start < end <= rounds:
            raise ScheduleError(f"attack_schedule: phases must partition [0,{rounds});"
                                f" bad phase [{start},{end})")
        patterns += [kinds[name]] * (end - start)
    if len(patterns) != rounds:
        raise ScheduleError(f"attack_schedule: covers [0,{len(patterns)})"
                            f" but config has {rounds} rounds")
    return patterns


def _parse_value(name: str, raw: str):
    """Parse a config value by the declared type of field `name`.

    int and float fields take numbers, bool fields only `true`/`false`, and
    Optional fields also `none`/`null`/empty; anything else is a ConfigError.
    """
    raw = raw.strip()
    word = raw.lower()
    kind = _CONFIG_FIELDS[name].type
    if type(None) in get_args(kind):  # Optional[X]
        if word in ("none", "null", ""):
            return None
        kind = get_args(kind)[0]
    if name == "attack_schedule":
        return _parse_schedule(raw)
    if kind is bool:
        if word in ("true", "false"):
            return word == "true"
    else:
        try:
            return kind(raw)
        except ValueError:
            pass
    raise ConfigError(f"{name}: expected {kind.__name__}, got '{raw}'")


def _parse_schedule(raw: str) -> list[tuple[int, int, str]]:
    """Parse `start:end:pattern` phase triples separated by commas."""
    phases = []
    for chunk in filter(None, map(str.strip, raw.split(","))):
        try:
            start, end, pattern = chunk.split(":")
            phases.append((int(start), int(end), pattern.strip()))
        except ValueError:
            raise ConfigError(f"attack_schedule: bad phase '{chunk}',"
                              " expected start:end:pattern") from None
    return phases


def load_config(path: str | Path) -> SystemConfig:
    """Load a `key = value` config file into a validated SystemConfig.

    Lines starting with `#` are comments. Keys must be SystemConfig field
    names; unknown keys raise ConfigError.
    """
    path = Path(path)
    overrides = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{line}'")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        overrides[key] = _parse_value(key, raw)
    return validate_config(replace(SystemConfig(), **overrides))


def config_to_dict(cfg: SystemConfig) -> dict:
    """Flat dict of all config fields (attack_schedule as phase triples)."""
    return asdict(cfg)


def config_from_dict(data: dict) -> SystemConfig:
    """Validated inverse of config_to_dict.

    Each value is read back through the config-file grammar, so a dict (a
    manifest's, say) cannot hold a value that a config file could not.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a mapping, got {type(data).__name__}")
    values = {}
    for key, value in data.items():
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown config key '{key}'")
        if (key == "attack_schedule" and isinstance(value, list)
                and all(isinstance(phase, (list, tuple)) for phase in value)):
            value = ",".join(":".join(map(str, phase)) for phase in value)
        values[key] = _parse_value(key, str(value))
    return validate_config(replace(SystemConfig(), **values))


class RngStream:
    """Deterministic labeled randomness.

    One root seed; every stochastic draw happens on a sub-stream labeled by
    (purpose tag, round, node). The simulation labels its streams by
    (purpose, round) only and leaves `node` at 0: a round's contributions
    come from one ("contrib", t) stream in batches of n values, node i taking
    element i of each batch. Identical (seed, label) always yields the
    identical generator, and distinct labels yield statistically independent
    generators, so reordering independent computations cannot change results.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def stream(self, purpose: str, round_: int = 0, node: int = 0) -> np.random.Generator:
        tag = zlib.crc32(purpose.encode("utf-8"))
        ss = np.random.SeedSequence([self.seed & 0xFFFFFFFFFFFFFFFF, tag, round_, node])
        return np.random.default_rng(ss)


@dataclass
class RoundRecord:
    """Per-round audit trail: everything one round decided, per node."""
    round: int
    committee: list[int]
    undersized_committee: bool
    contributions: list[float]            # indexed by node id
    completion_times: list[float]
    qualities: list[float]
    reputation_after: list[float]
    penalties: list[float]
    rewards: list[float]
    detected: list[int]
    timeouts: list[int]
    jain_fairness: float
    gini: float
    total_paid: float


def init_population(cfg: SystemConfig, rng: RngStream) -> Population:
    """Create the starting population, node i at index i.

    Exactly round-half-up(malicious_percent * n) nodes are tagged malicious,
    chosen on the ("roles", 0) stream; everything else about the nodes is
    identical.
    """
    n = cfg.n_nodes
    n_malicious = int(math.floor(cfg.malicious_percent * n + 0.5))
    malicious = np.zeros(n, dtype=bool)
    if n_malicious:
        malicious[rng.stream("roles", 0, 0).choice(n, size=n_malicious, replace=False)] = True
    return Population(stake=np.full(n, float(cfg.initial_stake)),
                      reputation=np.full(n, float(cfg.initial_reputation)),
                      total_reward=np.zeros(n), participation=np.zeros(n, dtype=np.int64),
                      cooldown=np.zeros(n, dtype=np.int64), history=np.empty((0, n)),
                      malicious=malicious)
