"""Deterministic simulator and contract analysis for a reputation-based
federated-learning incentive mechanism."""

from .core import (
    ConfigError, DomainError, Node, PatternKind, RngStream, Role, RoundRecord, ScheduleError,
    SystemConfig, attack_patterns, config_to_dict, init_population, load_config, sigmoid,
    validate_config,
)
from .committee import CommitteeSelection, SampleError, select_committee, stratum_quota, update_cooldowns
from .detection import DetectionReport, apply_penalties, detect
from .engine import WorldState, iter_rounds, new_world, run_round, run_simulation
from .metrics import gini, jain_index
from .contract import (
    ContractContext, DegenerateContract, OptimalSolution, contribution_value,
    default_contract_context, effort_cost, grid_oracle, optimal_contract_closed_form,
    optimal_contribution_closed_form, relaxed_profit, reward_slope, solve_constrained,
)

__version__ = "0.1.0"
