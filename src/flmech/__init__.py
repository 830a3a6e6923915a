"""Deterministic simulator and contract analysis for a reputation-based
federated-learning incentive mechanism."""

from .core import (
    ConfigError, DomainError, Node, PatternKind, RngStream, Role, RoundRecord, ScheduleError,
    SystemConfig, attack_patterns, config_to_dict, init_population, load_config, sigmoid,
    validate_config,
)
from .committee import CommitteeSelection, SampleError, select_committee, stratum_quota, update_cooldowns
from .detection import DetectionReport, apply_penalties, detect, penalty
from .engine import PublisherLedger, WorldState, new_world, run_round, run_simulation
from .metrics import gini, jain_index
from .contract import (
    ComplianceInput, ContractContext, ContractItem, ContractMenu, DegenerateContract,
    OptimalSolution, ProbabilityError, SolverError, check_IC, check_IR, compliance,
    contribution_value, default_contract_context, effort_cost, expected_profit,
    grid_oracle, optimal_contract_closed_form, optimal_contribution_closed_form,
    participant_utility, publisher_profit, relaxed_profit, reward_slope,
    solve_constrained,
)

__version__ = "0.1.0"
