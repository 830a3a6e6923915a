"""The benchmark's tracer wraps flmech names by attribute lookup; every one of
them must still exist, and a traced run must still reach the round layers
through them, so that renaming, deleting or bypassing a wrapped name fails
here and not only in a traced benchmark run."""

import dataclasses
import importlib
from pathlib import Path

from flmech import engine
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
    malicious = {nd.id for nd in result.nodes if nd.role is Role.MALICIOUS}
    flagged = [i for rec in result.records for i in rec.detected]
    assert any(i in malicious for i in flagged)
    assert tracer.counts[0]["detection.flagged"] == len(flagged)
    assert tracer.counts[0]["detection.flagged_malicious"] == sum(i in malicious for i in flagged)
