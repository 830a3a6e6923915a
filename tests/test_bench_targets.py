"""The benchmark's tracer wraps flmech names by attribute lookup; every one of
them must still exist, so that renaming or deleting a wrapped name fails here
and not only in a traced benchmark run."""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    targets = spans.Tracer()._targets()
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
