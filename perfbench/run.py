"""symcert benchmark: one workload run, or all of them in turn.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  Each run spawns fresh workload
processes (perfbench/worker.py), so every lru_cache starts cold, as it
does for a CLI user.  The untraced run (--trace 0) times set-up in
SETUP_SPAWNS spawns and reports the median, then measures the closed
loop in the last spawn; it prints the end-to-end metrics.  The traced
run (--trace 1) puts a span around each of the worker's calls into
symcert, replays the same ops untraced to get the tracing overhead, and
prints the per-layer metrics.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("certify", "reduce-verify", "search", "cli-readme")
SETUP_SPAWNS = 7
TAIL_BEYOND = 10
# Longest a workload process may take past its measuring time: one
# round of the slowest workload plus set-up, with a wide margin.
WORKER_GRACE_S = 60


class RunError(Exception):
    pass


def isolated_env() -> dict:
    """The workload's environment: no SYMCERT_* switches, no inherited
    Python path or start-up hooks, symcert from this checkout's src."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("SYMCERT_", "PYTHON"))
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment_record(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "seed": seed,
    }


class Worker:
    """One workload process, spawned and timed until it reports ready."""

    def __init__(self, workload, seed, seconds, trace, cwd, out, ops=0, spans=None):
        command = [
            sys.executable,
            "-S",
            str(HERE / "worker.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--ops", str(ops),
            "--out", str(out),
        ]
        if spans is not None:
            command += ["--spans", str(spans)]
        self.out = out
        self.deadline = seconds + WORKER_GRACE_S
        started = perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=cwd,
            env=isolated_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        self.setup_s = perf_counter() - started
        if line.strip() != "ready":
            self.stop()
            raise RunError(f"{workload} worker failed during set-up (exit {self.proc.returncode})")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        if self.proc.stdin:
            self.proc.stdin.close()

    def quit(self) -> None:
        try:
            self.proc.communicate("quit\n", timeout=WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            self.stop()
            raise RunError("set-up probe did not exit") from None

    def run(self) -> dict:
        try:
            self.proc.communicate("go\n", timeout=self.deadline)
        except subprocess.TimeoutExpired:
            self.stop()
            raise RunError("workload process did not finish in time") from None
        if self.proc.returncode != 0:
            raise RunError(f"workload process exited with {self.proc.returncode}")
        with open(self.out, encoding="utf-8") as handle:
            return json.load(handle)


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it,
    and that percentile."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


def untraced(workload, seed, seconds, cwd) -> tuple[dict, dict, list[str]]:
    setups = []
    for spawn in range(SETUP_SPAWNS):
        worker = Worker(workload, seed, seconds, 0, cwd, cwd / "result.json")
        setups.append(worker.setup_s)
        if spawn < SETUP_SPAWNS - 1:
            worker.quit()
    result = worker.run()
    latencies = result["latencies"]
    tail, percentile = _tail(latencies)
    attempted = len(latencies)
    metrics = {
        "ops_per_s": (statistics.median(result["round_rates"]), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    notes = [
        f"op_tail_ms is p{percentile:.3f} of {attempted} ops ({TAIL_BEYOND} beyond it)",
        f"failed_ratio {result['failed'] / attempted:.6g} ratio ({result['failed']} of {attempted})",
        f"setup_s spawns {[round(s, 4) for s in setups]}",
    ]
    return result, metrics, notes


def traced(workload, seed, seconds, cwd) -> tuple[dict, dict, list[str]]:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    result = Worker(workload, seed, seconds, 1, cwd, cwd / "traced.json", spans=spans).run()
    attempted = len(result["latencies"])
    # the same ops again, untraced and cold, for the tracing overhead
    replay = Worker(workload, seed, seconds, 0, cwd, cwd / "replay.json", ops=attempted).run()
    overhead = sum(result["latencies"]) / sum(replay["latencies"])
    metrics = {name: tuple(entry) for name, entry in result["layers"].items()}
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    notes = [f"spans written to {spans.relative_to(ROOT)}"]
    return result, metrics, notes


def run_workload(workload: str, seed: int, seconds: float, trace: int, record: dict) -> dict:
    WORK.mkdir(exist_ok=True)
    cwd = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    cwd.mkdir()
    try:
        measure = traced if trace else untraced
        result, metrics, notes = measure(workload, seed, seconds, cwd)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    attempted = len(result["latencies"])
    failed = result["failed"]
    print(f"workload {workload} seed {seed} trace {trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    final = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    saved = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(saved, "w", encoding="utf-8") as handle:
        json.dump({"environment": record, "result": final, "notes": notes, "latencies": result["latencies"]}, handle)
    return final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "symcert" / "__init__.py").is_file():
        print(f"error: no symcert sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, so set-up times the import and not the compiler
    compileall.compile_dir(str(SRC), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2, maxlevels=0)

    record = environment_record(args.seed)
    print("environment " + json.dumps(record))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace, record) for name in names}
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
