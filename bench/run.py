#!/usr/bin/env python3
"""flmech benchmark: one workload, one seed, one closed-loop run.

Usage (from the repository root):

    python3 bench/run.py --workload long_horizon --seed 1 --seconds 30 --trace 0

Workloads: paper_sweep, long_horizon, wide_population, contract_grid (see
bench/README.md). The run repeats the workload until --seconds is spent (at
least three times), times bench/reference.py between unit calls, checks
every repetition's outputs, and prints a summary, one
`{"report": ...}` JSON line with provenance, digests and every metric, and
last the result line: `correct`, `attempted`, `failed` and `metrics`.

--trace 0 measures end-to-end metrics with nothing wrapped except the
workload's unit call (`engine.run_round`, or `contract.solve_constrained`),
which is timed. --trace 1 alternates plain repetitions
with repetitions whose layer calls record spans, reports per-layer self
times and counters, and writes the spans to .bench_out/spans-WORKLOAD.tsv.
--smoke runs tiny sizes, for checking the harness itself.

Exits 2 without a result when the flmech sources are missing.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 6
REFERENCE_SLOTS = 72    # reference calls per repetition, at most
P95_MIN_ROUNDS = 200

# Result-line metrics. Each one exists on every workload; the
# workload-specific metrics, the median `wall_s` among them, are in the
# report line.
END_TO_END = ("wall_ref", "setup_s", "peak_rss_mb")

# Per-layer metrics: a name ending in `_s` is the median, over traced
# repetitions, of the summed self time of the span named by its stem (or
# LAYER_SPANS); the rest are per-repetition counts that must repeat exactly.
PER_LAYER = {
    "core.rng_streams": "count",
    "core.rng_stream_s": "s",
    "behavior.sample_s": "s",
    "engine.collect_s": "s",
    "engine.self_s": "s",
    "reward.allocate_s": "s",
    "detection.detect_s": "s",
    "detection.penalties_s": "s",
    "detection.flagged": "count",
    "detection.flag_precision": "ratio",
    "committee.select_s": "s",
    "committee.cooldown_s": "s",
    "committee.undersized": "count",
    "reputation.update_s": "s",
    "reputation.stability_s": "s",
    "metrics.jain_s": "s",
    "metrics.gini_s": "s",
    "cli.export_s": "s",
    "cli.bytes_written": "bytes",
    "cli.verify_s": "s",
    "cli.rows_verified": "count",
    "contract.solve_s": "s",
    "contract.grid_oracle_s": "s",
    "contract.slsqp_iters": "count",
    "contract.grid_gap": "abs",
    "contract.grid_bytes_computed": "bytes",
    "trace.overhead_s": "s",
}
LAYER_SPANS = {"engine.self_s": "engine.run_round", "cli.export_s": "cli.simulate"}
DETERMINISTIC = ("core.rng_streams", "detection.flagged", "detection.flagged_malicious",
                 "committee.undersized", "contract.slsqp_iters",
                 "contract.grid_bytes_computed", "cli.bytes_written", "cli.rows_verified")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_sweep", "long_horizon", "wide_population", "contract_grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the harness")
    return parser.parse_args(argv)


def provenance(workload) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "config": workload.config,
    }


def setup_seconds() -> float:
    """Set-up time of one fresh process."""
    done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(ROOT)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def unit_timer(fn, samples: list, refs: list, every: int):
    """Wrap fn so that each call's duration in ns lands in samples, and
    after every `every` calls one reference() call's duration in refs."""
    from reference import reference

    def timed(*args, **kwargs):
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            samples.append(t1 - t0)
            if len(samples) % every == 0:
                reference()
                refs.append(perf_counter_ns() - t1)
    return timed


class Runner:
    def __init__(self, workload, work: Path, tracer, probes: int):
        self.workload = workload
        self.work = work
        self.tracer = tracer
        self.probes = probes
        self.reps: list[dict] = []
        self.setup: list[float] = []
        self.probing_s = 0.0
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def next_cpu(self) -> None:
        """Each CPU of a shared host slows and recovers on its own, so
        repetitions and set-up probes take turns on the CPUs the run may use."""
        os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
        self.turn += 1

    def probe(self) -> None:
        """One set-up probe, on the next CPU, outside the run's time budget."""
        t0 = perf_counter()
        self.next_cpu()
        self.setup.append(setup_seconds())
        self.probing_s += perf_counter() - t0

    def rep(self, traced: bool) -> None:
        from spans import patched

        self.next_cpu()
        gc.collect()
        out = self.work / "run"
        out.mkdir()
        units: list[int] = []
        refs: list[int] = []
        if traced:
            self.tracer.begin_run()
            context = self.tracer.installed()
        else:
            owner, attr = self.workload.unit_call()
            every = max(1, self.workload.units // REFERENCE_SLOTS)
            context = patched([(owner, attr, unit_timer(getattr(owner, attr), units, refs, every))])
        with context:
            t0 = perf_counter()
            if traced:
                outputs = self.tracer.call("bench.repetition", self.workload.run, out)
            else:
                outputs = self.workload.run(out)
            wall = perf_counter() - t0 - sum(refs) / 1e9
        checked = self.workload.check(outputs, out)
        shutil.rmtree(out, ignore_errors=True)
        counters = dict(checked.counters)
        if traced:
            counters.update(self.tracer.counts[self.tracer.run_id])
        self.reps.append({"traced": traced, "run_id": self.tracer.run_id if traced else None,
                          "wall": wall, "units_ns": units, "refs_ns": refs, "checked": checked,
                          "counters": counters})

    def run(self, seconds: float, trace: bool) -> None:
        """Repeat until the next repetition would end after `seconds`."""
        minimum = [False, True, True] if trace else [False, False, False]
        start = perf_counter()
        while True:
            if len(self.reps) < len(minimum):
                traced = minimum[len(self.reps)]
            else:
                expected = statistics.median(r["wall"] for r in self.reps)
                if perf_counter() - start - self.probing_s + expected > seconds:
                    break
                plain = sum(not r["traced"] for r in self.reps)
                traced = trace and plain > len(self.reps) - plain
            if len(self.setup) < self.probes:
                self.probe()
            self.rep(traced)
        while len(self.setup) < self.probes:
            self.probe()
        os.sched_setaffinity(0, self.cpus)

    def consistency_problems(self) -> list[str]:
        """Digests and deterministic counters must repeat across repetitions."""
        problems = []
        first = self.reps[0]
        for i, rep in enumerate(self.reps[1:], start=1):
            if rep["checked"].digest != first["checked"].digest:
                problems.append(f"repetition {i}: output digest differs from repetition 0")
        plain = [len(rep["units_ns"]) for rep in self.reps if not rep["traced"]]
        if len(set(plain)) > 1:
            problems.append(f"unit calls differ across repetitions: {sorted(set(plain))}")
        for key in DETERMINISTIC:
            values = {rep["counters"][key] for rep in self.reps if key in rep["counters"]}
            if len(values) > 1:
                problems.append(f"counter {key} differs across repetitions: {sorted(values)}")
        return problems


def end_to_end(workload, reps, setup, peak_rss_mb) -> dict:
    """Every end-to-end metric this workload has, as {name: (value, unit)}."""
    walls = [r["wall"] for r in reps]
    # A repetition's time over the time of the reference calls made within
    # it: both slow down together when the host does.
    references = [sum(r["refs_ns"]) / 1e9 for r in reps]
    metrics = {"wall_ref": (statistics.median(w / ref for w, ref in zip(walls, references)), "ref"),
               "wall_s": (statistics.median(walls), "s"),
               "reference_s": (statistics.median(references), "s")}
    if setup:
        metrics["setup_s"] = (statistics.median(setup), "s")
    if workload.node_rounds:
        metrics["node_rounds_per_s"] = (statistics.median(workload.node_rounds / w for w in walls),
                                        "1/s")
    rounds = [ns / 1e6 for r in reps for ns in r["units_ns"]] if workload.rounds_per_run else []
    if rounds:
        metrics["round_ms_p50"] = (statistics.median(rounds), "ms")
        if workload.rounds_per_run >= P95_MIN_ROUNDS:
            metrics["round_ms_p95"] = (statistics.quantiles(rounds, n=20)[18], "ms")
    per_rep = [workload.throughput(w) for w in walls]
    for name, (_, unit) in per_rep[0].items():
        metrics[name] = (statistics.median(p[name][0] for p in per_rep), unit)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


def span_stats(tracer, reps) -> dict:
    """Median self and inclusive seconds, and calls, per span name, over the
    traced repetitions; also stores each repetition's RNG stream count."""
    self_s, incl_s, calls = tracer.self_times()
    traced = [r for r in reps if r["traced"]]
    streams = tracer.names.index("core.rng_stream") if "core.rng_stream" in tracer.names else None
    for rep in traced:
        rep["counters"]["core.rng_streams"] = 0 if streams is None else int(calls[rep["run_id"], streams])
    return {name: {"self_s": statistics.median(self_s[r["run_id"], j] for r in traced),
                   "incl_s": statistics.median(incl_s[r["run_id"], j] for r in traced),
                   "calls": int(calls[traced[0]["run_id"], j])}
            for j, name in enumerate(tracer.names)}


def per_layer(spans: dict, reps) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    traced = [r["wall"] for r in reps if r["traced"]]
    plain = [r["wall"] for r in reps if not r["traced"]]
    counters = next(r["counters"] for r in reps if r["traced"])
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        elif name == "detection.flag_precision":
            flagged = counters.get("detection.flagged", 0)
            value = counters.get("detection.flagged_malicious", 0) / flagged if flagged else 0.0
        elif unit == "s":
            value = spans.get(LAYER_SPANS.get(name, name[:-2]), {}).get("self_s", 0.0)
        else:
            value = counters.get(name, 0)
        metrics[name] = (value, unit)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "flmech" / "__init__.py").is_file() or \
            not (ROOT / "configs" / "default.cfg").is_file():
        print(f"error: no flmech sources (src/flmech, configs/default.cfg) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import flmech
    if Path(flmech.__file__).resolve().parent != ROOT / "src" / "flmech":
        print(f"error: imported flmech from {flmech.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "warmup").mkdir(parents=True)
    try:
        cls = WORKLOADS[args.workload]
        workload = cls(ROOT, work, args.seed, args.smoke)
        # One untimed small repetition loads what the first call loads lazily.
        warm = cls(ROOT, work / "warmup", args.seed, smoke=True)
        (work / "warmup" / "run").mkdir()
        warm.check(warm.run(work / "warmup" / "run"), work / "warmup" / "run")

        tracer = Tracer()
        probes = 0 if args.trace else 1 if args.smoke else SETUP_PROBES
        runner = Runner(workload, work, tracer, probes)
        runner.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reps = runner.reps
    plain = [r for r in reps if not r["traced"]]
    spans = span_stats(tracer, reps) if args.trace else {}
    consistency = runner.consistency_problems()
    problems = [p for r in reps for p in r["checked"].problems] + consistency
    attempted = sum(r["checked"].attempted for r in reps)
    failed = attempted if consistency else sum(r["checked"].failed for r in reps)
    e2e = end_to_end(workload, plain, runner.setup, peak_rss_mb)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "why": cls.__doc__.strip().splitlines()[0],
        "provenance": provenance(workload),
        "samples": {"repetitions": len(plain), "traced_repetitions": len(reps) - len(plain),
                    "walls_s": [r["wall"] for r in reps],
                    "unit_calls": sum(len(r["units_ns"]) for r in plain),
                    "setup_probes": len(runner.setup)},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "error_rate": failed / attempted,
        "files_sha256": reps[0]["checked"].files,
        "output_sha256": reps[0]["checked"].digest,
        "counters": reps[-1]["counters"],
        "problems": problems[:20],
    }
    if args.trace:
        result_metrics = per_layer(spans, reps)
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()}
        report["spans"] = spans
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}.tsv")
    else:
        result_metrics = {name: e2e[name] for name in END_TO_END}

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} plain + {len(reps) - len(plain)} traced repetitions, "
          f"{failed}/{attempted} operations failed")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<20} {value:>14.6g} {unit}")
    for problem in problems[:20]:
        print(f"  problem: {problem}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result_metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
