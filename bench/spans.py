"""Spans at flmech's layer boundaries, recorded from outside the package.

A `Tracer` replaces the names that flmech's callers look up (module globals
such as `flmech.engine.collect_contributions`, and the `RngStream.stream`
class attribute) with wrappers that record one span per call: name, start,
end, parent span and run id. Spans live in compact in-memory arrays and are
written out once, when the run ends. Nothing under `src/` is edited; the
originals are restored when `Tracer.installed()` exits.
"""

import contextlib
import functools
import inspect
from array import array
from time import perf_counter_ns

import numpy as np

from flmech import cli, committee, contract, core, detection, engine, reward

_GRID_POINTS = inspect.signature(contract.grid_oracle).parameters["points_per_axis"].default


def grid_bytes(points_per_axis: int) -> int:
    """Bytes of the (P, P) arrays one `grid_oracle` call materialises, computed
    from array sizes: the float64 profit surface, the bool feasibility mask and
    the float64 `np.where` result (17 bytes per grid point)."""
    return 17 * points_per_axis * points_per_axis


class Tracer:
    """Collects spans and per-run counters for one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.run = array("i")
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.run_id = -1
        self.counts: list[dict[str, float]] = []

    def begin_run(self) -> None:
        """Start a new run id; later spans and counters belong to it."""
        self.run_id += 1
        self.counts.append({})

    def count(self, key: str, amount: float = 1) -> None:
        bucket = self.counts[self.run_id]
        bucket[key] = bucket.get(key, 0) + amount

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.run.append(self.run_id)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # Counter hooks run after the wrapped call returns, on its arguments and result.

    def _after_select(self, args, kwargs, selection):
        self.count("committee.undersized", int(selection.undersized))

    def _after_detect(self, args, kwargs, report):
        nodes = args[0]
        self.count("detection.flagged", len(report.detected))
        # The role tag is ground truth that mechanism code never reads; only
        # the harness looks at it, to score the flags.
        self.count("detection.flagged_malicious",
                   sum(nodes[i].role is core.Role.MALICIOUS for i in report.detected))

    def _after_solve(self, args, kwargs, solution):
        self.count("contract.slsqp_iters", solution.diagnostics["iterations"])
        bucket = self.counts[self.run_id]
        bucket["contract.grid_gap"] = max(bucket.get("contract.grid_gap", 0.0),
                                          solution.diagnostics["grid_gap"])

    def _after_grid(self, args, kwargs, result):
        points = kwargs.get("points_per_axis", args[4] if len(args) > 4 else _GRID_POINTS)
        self.count("contract.grid_bytes_computed", grid_bytes(points))

    def _targets(self):
        """(owner, attribute, span name, counter hook) for every wrapped name.

        Each owner is the namespace the caller resolves the name in: engine
        reaches committee, detection and reward through their modules, and
        imports the reputation, metrics and behavior functions into its own.
        """
        return [
            (core.RngStream, "stream", "core.rng_stream", None),
            (engine, "sample_contribution", "behavior.sample", None),
            (engine, "collect_contributions", "engine.collect", None),
            (engine, "run_round", "engine.run_round", None),
            (engine, "run_simulation", "engine.run_simulation", None),
            (committee, "select_committee", "committee.select", self._after_select),
            (committee, "update_cooldowns", "committee.cooldown", None),
            (detection, "detect", "detection.detect", self._after_detect),
            (detection, "apply_penalties", "detection.penalties", None),
            (engine, "update_reputation", "reputation.update", None),
            (engine, "stability", "reputation.stability", None),
            (reward, "allocate_rewards", "reward.allocate", None),
            (engine, "jain_index", "metrics.jain", None),
            (reward, "jain_index", "metrics.jain", None),
            (engine, "gini", "metrics.gini", None),
            (cli, "cmd_simulate", "cli.simulate", None),
            (cli, "run_simulation", "engine.run_simulation", None),
            (cli, "cmd_verify", "cli.verify", None),
            (contract, "solve_constrained", "contract.solve", self._after_solve),
            (contract, "grid_oracle", "contract.grid_oracle", self._after_grid),
            (contract, "optimal_contract_closed_form", "contract.closed_form", None),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target name for the duration of the block."""
        with patched([(owner, attr, self._wrap(span, getattr(owner, attr), after))
                      for owner, attr, span, after in self._targets()]):
            yield self

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per (run id, span name): self seconds, inclusive seconds, calls.

        Self time is a span's duration minus the time its child spans cover.
        Calls are single-threaded, so children never overlap each other.
        """
        runs, names = self.run_id + 1, len(self.names)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        run = np.frombuffer(self.run, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        self_s = np.zeros((runs, names))
        incl_s = np.zeros((runs, names))
        calls = np.zeros((runs, names), dtype=np.int64)
        np.add.at(self_s, (run, name), (dur - child) / 1e9)
        np.add.at(incl_s, (run, name), dur / 1e9)
        np.add.at(calls, (run, name), 1)
        return self_s, incl_s, calls

    def write(self, path) -> None:
        """Write every span as a tab-separated row."""
        with open(path, "w") as fh:
            fh.write("run_id\tspan_id\tparent_id\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{self.run[i]}\t{i}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                         f"{self.start[i]}\t{self.end[i]}\n")


@contextlib.contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) for the block; restore on exit."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(originals):
            setattr(owner, attr, value)
