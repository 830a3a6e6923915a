#!/usr/bin/env python3
"""Smoke test of the benchmark harness itself.

Usage (from the repository root):  python3 bench/smoke.py

Validates BENCHMARK.json, then runs bench/run.py --smoke (tiny sizes) on every
workload with --trace 0 and --trace 1 and checks each run's output schema:
the last line holds exactly `correct`, `attempted`, `failed` and `metrics`,
every operation passed, and the metrics are exactly the end-to-end (trace 0)
or per-layer (trace 1) metrics of BENCHMARK.json, with their units and
finite values; the line before it is the report with its provenance block.
Last, it checks that run.py exits non-zero without a result in a directory
that holds only BENCHMARK.json and the benchmark's own files.
Exits 1 on the first failure.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
PROVENANCE = {"git_commit", "source_sha256", "python", "numpy", "scipy", "nproc",
              "cgroup_cpu_max", "config"}


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)


def validate_benchmark(bench: dict) -> None:
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json keys")
    check(1 <= len(bench["paths"]) <= 16 and all(
        PATH.fullmatch(p) and not p.startswith("/") and ".." not in p.split("/")
        for p in bench["paths"]), "paths")
    check(len(bench["command"]) <= 32 and all(len(c) <= 200 for c in bench["command"]), "command")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(bench["workloads"]) <= 8 and all(
        set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        for w in bench["workloads"]), "workloads")
    check(1 <= len(bench["end_to_end"]) <= 16 and all(
        set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        for m in bench["end_to_end"]), "end_to_end")
    check(1 <= len(bench["per_layer"]) <= 128 and all(
        set(m) == {"name", "unit", "better"} for m in bench["per_layer"]), "per_layer")
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in bench["workloads"]]
    check(len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names), "names")
    check(all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics),
          "units")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s has unit s, lower is better and the largest bound")
    check(len(json.dumps(bench)) <= 64 * 1024, "BENCHMARK.json size")


def validate_run(bench: dict, workload: str, trace: int) -> None:
    cmd = bench["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    label = f"{workload} --trace {trace}"
    check(done.returncode == 0, f"{label} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{label} correct, none failed")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label} attempted")
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    check({k: v["unit"] for k, v in result["metrics"].items()} ==
          {m["name"]: m["unit"] for m in expected}, f"{label} metric names and units")
    check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
              and set(v) == {"value", "unit"} for v in result["metrics"].values()),
          f"{label} metric values")
    check(PROVENANCE <= set(report["provenance"]), f"{label} provenance block")
    check(report["error_rate"] == 0 and report["output_sha256"], f"{label} report")
    print(f"ok   {label}: {result['attempted']} operations, {len(result['metrics'])} metrics")


def validate_bare(bench: dict) -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                                  "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        check(done.returncode != 0 and '"correct"' not in done.stdout,
              "without the sources the benchmark exits non-zero and prints no result")
        print(f"ok   bare directory: exit {done.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    validate_benchmark(bench)
    print("ok   BENCHMARK.json")
    # paper_sweep stays runnable although BENCHMARK.json leaves it out.
    names = [w["name"] for w in bench["workloads"]] + ["paper_sweep"]
    for workload in dict.fromkeys(names):
        for trace in (0, 1):
            validate_run(bench, workload, trace)
    validate_bare(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
