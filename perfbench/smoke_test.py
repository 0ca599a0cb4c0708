"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload for a fraction of a second on two seeds, untraced
and traced, and asserts that each run exits 0, that its last stdout line
carries exactly the metrics BENCHMARK.json names for that mode, each with
its unit, and that no op failed.  Then it checks that the benchmark
refuses to run, without printing a result, in a directory that holds
only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2)
SECONDS = "0.5"
TIMEOUT_S = 180


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", SECONDS,
        "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(spec: dict, workload: str, seed: int, trace: int) -> list[str]:
    label = f"{workload} seed {seed} trace {trace}"
    done = _run(ROOT, workload, seed, trace)
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} of {result['attempted']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"{label}: missing {sorted(set(expected) - set(metrics))}, extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: {name} = {entry}, want a number in {unit}")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail, not report."""
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_tmp") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, "certify", SEEDS[0], 0)
    if done.returncode == 0:
        return ["bare directory: run.py exited 0"]
    lines = done.stdout.strip().splitlines()
    if lines and lines[-1].startswith("{"):
        return ["bare directory: run.py printed a result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                found = check_run(spec, workload, seed, trace)
                print(f"{'FAIL' if found else 'ok  '} {workload} seed {seed} trace {trace}", flush=True)
                problems += found
    found = check_bare_directory()
    print(f"{'FAIL' if found else 'ok  '} bare directory refuses to run", flush=True)
    problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
