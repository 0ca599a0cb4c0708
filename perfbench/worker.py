"""The workload process: one interpreter, one client, one op in flight.

Started by run.py with a cleaned environment and a temporary working
directory.  It imports symcert, plans its inputs and builds those of the
first round, prints "ready" and waits for one line on stdin: "go" runs the closed loop, anything else
exits (the set-up probes).  Results go to the JSON file named by --out.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 --out F
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
from time import perf_counter

import symcert  # noqa: F401  (the import is part of set-up)

import tracing
import workloads

FAILURE_SAMPLES = 10
# Peak RSS is read after this many rounds (or at the end of a shorter
# run): a fixed amount of work, so a faster symcert that fits more ops
# into the run does not read as a bigger one.
PEAK_RSS_ROUNDS = 4


def _peak_rss_kb(with_children: bool) -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not with_children:
        return own
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0, help="stop after this many ops instead of on time")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    return parser.parse_args(argv)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, counters: dict) -> dict:
    """Per-layer metrics as name -> (value, unit); run.py adds the tracing overhead."""
    metrics = {}
    empty = {"calls": 0, "busy_s": 0.0, "errors": 0, "p50_ms": 0.0}
    for name in workloads.KERNEL_SPANS:
        row = summary.get(name, empty)
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.busy_s"] = (row["busy_s"], "s")
        metrics[f"{name}.errors"] = (row["errors"], "count")
    metrics["reduction.reduce_to_three.case_b_share"] = (
        _ratio(counters.get("reduce_to_three.case_b", 0), counters.get("reduce_to_three.calls", 0)),
        "ratio",
    )
    metrics["search.empirical_theta.skip_ratio"] = (
        _ratio(counters.get("empirical_theta.skipped", 0), counters.get("empirical_theta.samples", 0)),
        "ratio",
    )
    metrics["search.find_counterexample_15.hit_ratio"] = (
        _ratio(counters.get("find_counterexample_15.hits", 0), counters.get("find_counterexample_15.calls", 0)),
        "ratio",
    )
    for name, _ in workloads.README_COMMANDS:
        row = summary.get(f"cli.{name}", empty)
        metrics[f"cli.{name}.calls"] = (row["calls"], "count")
        metrics[f"cli.{name}.busy_s"] = (row["busy_s"], "s")
        metrics[f"cli.{name}.errors"] = (row["errors"], "count")
        metrics[f"cli.{name}.p50_ms"] = (row["p50_ms"], "ms")
    return metrics


def _with_inputs(rounds):
    """Each round's ops paired with their inputs, built before it starts."""
    for block in rounds:
        yield [(op, workloads.inputs(op)) for op in block]


def _check(op, op_inputs, result, goldens, counters) -> None:
    """Raise CheckFailed unless the op's output is exactly right."""
    if op[0] == "cli":
        workloads.verify_cli(op_inputs, result, goldens)
        return
    parts = workloads.verify(op, op_inputs, result, counters)
    if workloads.digest(parts) != workloads.golden_digest(goldens, op[1], op[2]):
        raise workloads.CheckFailed(f"{op[:3]}: output differs from golden")


def main(argv=None) -> int:
    args = _args(sys.argv[1:] if argv is None else argv)
    rounds = _with_inputs(workloads.plan(args.workload, args.seed))
    first = next(rounds)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = tracing.Tracer() if args.trace else None
    call = tracer.call if tracer else tracing.direct
    cli = args.workload == "cli-readme"
    goldens = workloads.load_goldens(args.workload)
    latencies: list[float] = []
    round_rates: list[float] = []
    failures: list[str] = []
    counters: dict[str, int] = {}
    failed = 0
    peak_rss_kb = None
    started = perf_counter()
    for block in itertools.chain([first], rounds):
        begin = len(latencies)
        for op, op_inputs in block:
            if tracer:
                tracer.op_id = len(latencies)
            error = None
            t0 = perf_counter()
            try:
                result = call("op", workloads.execute, op, op_inputs, call)
            except Exception as exc:  # an op that raises counts as failed
                error = f"{op[:3]}: {type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - t0)
            if error is None:
                try:
                    _check(op, op_inputs, result, goldens, counters)
                except workloads.CheckFailed as exc:
                    error = str(exc)
            if error is not None:
                failed += 1
                if len(failures) < FAILURE_SAMPLES:
                    failures.append(error)
            if args.ops and len(latencies) >= args.ops:
                break
        else:
            round_rates.append(len(block) / sum(latencies[begin:]))
            if len(round_rates) == PEAK_RSS_ROUNDS:
                peak_rss_kb = _peak_rss_kb(cli)
        if len(latencies) >= args.ops if args.ops else perf_counter() - started >= args.seconds:
            break

    report = {
        "latencies": latencies,
        "round_rates": round_rates,
        "failed": failed,
        "failures": failures,
        "peak_rss_kb": peak_rss_kb if peak_rss_kb is not None else _peak_rss_kb(cli),
        "counters": counters,
        "layers": layer_metrics(tracer.summary(), counters) if tracer else None,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    if tracer and args.spans:
        tracer.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
