"""The benchmark's tracer wraps flmech names by attribute lookup; every one of
them must still exist, and a traced run must still reach the round layers
through them, so that renaming, deleting or bypassing a wrapped name fails
here and not only in a traced benchmark run."""

import dataclasses
import importlib
from pathlib import Path

from flmech import contract, engine
from flmech.core import Role, SystemConfig

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    targets = spans.Tracer()._targets()
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_traced_run_calls_each_layer_once_per_round(monkeypatch):
    # the tracer's spans and counters stay meaningful: every round layer is
    # one wrapped call per round, and the detect hook scores the flags
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    cfg = dataclasses.replace(SystemConfig(), n_nodes=30, rounds=8, eta_switch=3,
                              malicious_percent=0.2)
    tracer = spans.Tracer()
    tracer.begin_run()
    with tracer.installed():
        result = engine.run_simulation(cfg, seed=3)
    _, _, calls = tracer.self_times()
    per_name = dict(zip(tracer.names, calls[0].tolist()))
    for name in ("engine.collect", "committee.select", "committee.cooldown", "detection.detect",
                 "detection.penalties", "reward.allocate"):
        assert per_name[name] == cfg.rounds, name
    # the fairness spans: the engine's index over the rewards and
    # allocate_rewards' over the reputations, and the engine's gini
    assert per_name["metrics.jain"] == 2 * cfg.rounds
    assert per_name["metrics.gini"] == cfg.rounds
    malicious = {nd.id for nd in result.nodes if nd.role is Role.MALICIOUS}
    flagged = [i for rec in result.records for i in rec.detected]
    assert any(i in malicious for i in flagged)
    assert tracer.counts[0]["detection.flagged"] == len(flagged)
    assert tracer.counts[0]["detection.flagged_malicious"] == sum(i in malicious for i in flagged)


def test_traced_solve_calls_the_grid_oracle_once_per_solve(monkeypatch):
    # contract.grid_oracle_s times the oracle through its module global, so
    # an oracle inlined into solve_constrained would read 0 there
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    configs = [SystemConfig(), dataclasses.replace(SystemConfig(), reward_pool=1800.0)]
    tracer = spans.Tracer()
    tracer.begin_run()
    with tracer.installed():
        for cfg in configs:
            contract.solve_constrained(cfg)
    _, _, calls = tracer.self_times()
    per_name = dict(zip(tracer.names, calls[0].tolist()))
    assert per_name["contract.solve"] == len(configs)
    assert per_name["contract.grid_oracle"] == len(configs)
