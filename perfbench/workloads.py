"""The four workloads: seeded op plans, op bodies, exact checks and the
canonical text that golden digests are taken over.

Every op input comes from a fixed pool keyed by (group, index), so one
golden per pool entry serves every seed; the run seed picks the order in
which the pool is visited (and, for ``certify``, the sample triples,
whose residual must be exactly zero whatever they are).  Plans cycle
forever; the worker stops them on time.

An op body receives ``call(span_name, fn, *args)`` and calls symcert only
through it, so the traced run can put a span around each call.  Building
inputs, checking outputs and digesting them happen outside the timed
region.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import symcert
from symcert import polys

WORKLOADS = ("certify", "reduce-verify", "search", "cli-readme")

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
DIGEST_CHARS = 8

# Spans the traced run reports, each as .calls, .busy_s and .errors.
KERNEL_SPANS = (
    "core.sigma_all",
    "gaps.gen_nm_gap",
    "gaps.quantitative_gap",
    "reduction.associated_cubic",
    "reduction.cubic_discriminant",
    "reduction.derivative_cascade",
    "polys.real_root_count_with_multiplicity",
    "reduction.reduce_to_three.regular",
    "reduction.reduce_to_three.clustered",
    "certificate.lemma32_check",
    "certificate.cert_constants",
    "certificate.f_scan",
    "certificate.lemma31_check",
    "certificate.theta_for",
    "certificate.decomposition_coefficient_match",
    "certificate.decomposition_residual",
    "cli.report_bundle",
    "search.empirical_theta",
    "search.find_counterexample_15",
    "search.structured_scan",
)

# The README command list, run as `python -S -m symcert <argv>`; "startup"
# is the start-up probe.  Span names are "cli.<name>".  -S keeps the host's
# site-packages hooks (.pth files) out of the timings; symcert has no
# dependencies, so it needs nothing from site-packages.
CLI_PREFIX = [sys.executable, "-S", "-m", "symcert"]
README_COMMANDS = (
    ("startup", ["--version"]),
    ("sigma", ["sigma", "--x", '["4","4","1/4","1/4"]']),
    ("verify.gen-nm", ["verify", "--ineq", "gen-nm", "--x", '["4","4","1/4","1/4"]', "--alpha", "1", "--k", "1"]),
    ("verify.combo", ["verify", "--ineq", "combo", "--x", '["4","4","1/4","1/4"]', "--coeffs", '["1","0","1"]']),
    ("verify.quantitative", ["verify", "--ineq", "quantitative", "--x", '["1","2","3","4"]', "--alpha", "-2", "--k", "1"]),
    ("chain", ["chain", "--x", '["1","2","3","4"]', "--alpha", "1"]),
    ("certificate", ["certificate", "--n", "4", "--k", "1"]),
    ("lemmas", ["lemmas", "--n-max", "64"]),
    ("reduce", ["reduce", "--x", '["1","2","3","4"]', "--k", "1"]),
    ("theta", ["theta", "--n", "4", "--k", "1"]),
    ("search.conjecture15", ["search", "conjecture15", "--m", "3", "--n", "4", "--seed", "0", "--budget", "2000"]),
    ("search.theta", ["search", "theta", "--n", "4", "--k", "1", "--samples", "1000", "--seed", "0"]),
    ("search.scan", ["search", "scan", "--family", "alternating-signs", "--n", "3"]),
    ("report", ["report", "--n-max", "8", "--seed", "0", "--samples", "200", "--out", "report.json"]),
)
REPORT_FILE = "report.json"
CLI_TIMEOUT_S = 120

# certify: every window (n, k) with 4 <= n <= 200, so binomials reach 59
# digits.  One window op in CERTIFY_SMALL_EVERY takes a window with
# n <= 12, which adds the symbolic coefficient match.  A round is one
# report_bundle op and CERTIFY_ROUND window ops: the report ops (~160 ms)
# are the tail population, long enough that a host stall of a few
# milliseconds on a ~1.5 ms window op cannot decide the tail percentile.
CERTIFY_N_MAX = 200
CERTIFY_MATCH_N_MAX = 12
CERTIFY_SMALL_EVERY = 64
CERTIFY_ROUND = 256
CERTIFY_TRIPLES = 3
REPORT_SEEDS = 32

# reduce-verify: a round holds (group, count) points for n in 3..10 -- for
# n >= 4 one of them has sigma_1 = 0 at k = 2, which takes the CaseB branch
# -- and two clustered triples.  Op cost climbs steeply with n (the
# cascade), so the counts put the median op inside the n = 7 population
# rather than on the edge between two of them.
RV_ROUND = (
    ("regular-3", 5),
    ("regular-4", 4), ("caseb-4", 1),
    ("regular-5", 4), ("caseb-5", 1),
    ("regular-6", 4), ("caseb-6", 1),
    ("regular-7", 5), ("caseb-7", 1),
    ("regular-8", 5), ("caseb-8", 1),
    ("regular-9", 5), ("caseb-9", 1),
    ("regular-10", 5), ("caseb-10", 1),
)
RV_CLUSTERED_PER_ROUND = 2
# Pools about as large as one run uses, so every seed visits nearly the
# same inputs in its own order and the input sample does not move the
# figures.
RV_POOL = 80
RV_CLUSTERED_POOL = 32
RV_MAX_DENOMINATOR = 30

# search: one round is every op below at one sampling seed.  The special
# windows are (3, 1), (12, 0) and (12, 11).  The seven n = 12 windows cost
# about the same, and with five cheaper and four dearer ops around them
# the median op of a round falls in their middle.
THETA_WINDOWS = ((3, 1), (8, 3), (12, 0), (12, 1), (12, 3), (12, 5), (12, 7), (12, 9), (12, 11))
THETA_SAMPLES = 64
HUNTS = ((2, 3, 128), (2, 4, 128), (3, 4, 256))  # (m, n, budget)
SCAN_N = 3
SCAN_FAMILIES = ("one-hot", "two-adjacent", "alternating-signs", "all-ones")
SEARCH_ROUNDS = 16  # about the rounds one run completes


class CheckFailed(Exception):
    """An op's output failed an exact check or differs from its golden."""


def digest(parts: list[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:DIGEST_CHARS]


def _rand_fraction(rng: random.Random, span: int = 10, max_denominator: int = RV_MAX_DENOMINATOR) -> Fraction:
    den = rng.randint(1, max_denominator)
    return Fraction(rng.randint(-span * den, span * den), den)


def _cycled(items: list, rng: random.Random):
    """Endless seeded walk over a pool: a fresh permutation per pass."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _windows() -> list[tuple[int, int]]:
    return [(n, k) for n in range(4, CERTIFY_N_MAX + 1) for k in range(1, n - 1)]


# -- plans --------------------------------------------------------------------
#
# An op is (kind, group, index, extra): (group, index) keys the pool entry
# and its golden; extra carries per-run inputs that cannot change the output.


def plan(workload: str, seed: int):
    """Endless iterator of rounds (lists of ops).  The worker checks the
    clock between rounds, so a round is the unit of the input mix."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        small = _cycled([w for w in _windows() if w[0] <= CERTIFY_MATCH_N_MAX], rng)
        large = _cycled([w for w in _windows() if w[0] > CERTIFY_MATCH_N_MAX], rng)
        position = 0
        for round_index in itertools.count():
            block = [("report_bundle", "report_bundle", (seed + round_index) % REPORT_SEEDS, None)]
            for _ in range(CERTIFY_ROUND):
                n, k = next(small if position % CERTIFY_SMALL_EVERY == 0 else large)
                block.append(("certify", f"n={n}", k - 1, (seed, position)))
                position += 1
            yield block
    elif workload == "reduce-verify":
        walks = {group: _cycled(list(range(RV_POOL)), rng) for group, _ in RV_ROUND}
        clustered = _cycled(list(range(RV_CLUSTERED_POOL)), rng)
        while True:
            block = [("reduce", "clustered", next(clustered), None) for _ in range(RV_CLUSTERED_PER_ROUND)]
            for group, count in RV_ROUND:
                block += [("reduce", group, next(walks[group]), None) for _ in range(count)]
            rng.shuffle(block)
            yield block
    elif workload == "search":
        for r in _cycled(list(range(SEARCH_ROUNDS)), rng):
            block = [("theta", f"round-{r}", i, None) for i in range(len(THETA_WINDOWS))]
            block += [("hunt", f"round-{r}", len(THETA_WINDOWS) + i, None) for i in range(len(HUNTS))]
            block += [("scan", "scan", i, None) for i in range(len(SCAN_FAMILIES))]
            rng.shuffle(block)
            yield block
    elif workload == "cli-readme":
        while True:
            block = [("cli", "cli", i, None) for i in range(len(README_COMMANDS))]
            rng.shuffle(block)
            yield block
    else:
        raise ValueError(f"unknown workload {workload!r}")


def pool(workload: str):
    """Every (kind, group, index, extra) a golden exists for."""
    if workload == "certify":
        yield from (("report_bundle", "report_bundle", i, None) for i in range(REPORT_SEEDS))
        yield from (("certify", f"n={n}", k - 1, (0, 0)) for n, k in _windows())
    elif workload == "reduce-verify":
        for group, _ in RV_ROUND:
            yield from (("reduce", group, j, None) for j in range(RV_POOL))
        yield from (("reduce", "clustered", j, None) for j in range(RV_CLUSTERED_POOL))
    elif workload == "search":
        for r in range(SEARCH_ROUNDS):
            yield from (("theta", f"round-{r}", i, None) for i in range(len(THETA_WINDOWS)))
            yield from (("hunt", f"round-{r}", len(THETA_WINDOWS) + i, None) for i in range(len(HUNTS)))
        yield from (("scan", "scan", i, None) for i in range(len(SCAN_FAMILIES)))
    elif workload == "cli-readme":
        yield from (("cli", "cli", i, None) for i in range(len(README_COMMANDS)))
    else:
        raise ValueError(f"unknown workload {workload!r}")


# -- inputs ---------------------------------------------------------------------


def inputs(op) -> tuple:
    kind, group, index, extra = op
    if kind == "report_bundle":
        return (8, index, 200)
    if kind == "certify":
        n, k = int(group[2:]), index + 1
        rng = random.Random(f"certify-triples:{extra[0]}:{extra[1]}")
        triples = [
            (tuple(_rand_fraction(rng) for _ in range(3)), _rand_fraction(rng))
            for _ in range(CERTIFY_TRIPLES)
        ]
        return (n, k, triples)
    if kind == "reduce":
        rng = random.Random(f"reduce-verify:{group}:{index}")
        if group == "clustered":
            # roots 10^-10..10^-9 apart: the trig seeds fail the residual
            # test and the Sturm bisection fallback runs
            r = _rand_fraction(rng)
            point = (r, r + Fraction(rng.randint(1, 10), 10**10), _rand_fraction(rng))
            k = 1
        elif group.startswith("caseb-"):
            # sigma_1 = 0 makes E_1 vanish, so window k = 2 takes CaseB
            n = int(group[6:])
            head = [_rand_fraction(rng) for _ in range(n - 1)]
            point = tuple(head) + (-sum(head),)
            k = 2
        else:
            n = int(group[8:])
            point = tuple(_rand_fraction(rng) for _ in range(n))
            k = rng.randint(1, n - 2)
        return (point, k, _rand_fraction(rng))
    if kind == "theta":
        n, k = THETA_WINDOWS[index]
        return (n, k, THETA_SAMPLES, int(group[6:]))
    if kind == "hunt":
        m, n, budget = HUNTS[index - len(THETA_WINDOWS)]
        return (m, n, int(group[6:]), budget)
    if kind == "scan":
        return (SCAN_FAMILIES[index], SCAN_N)
    if kind == "cli":
        return README_COMMANDS[index]
    raise ValueError(f"unknown op kind {kind!r}")


# -- op bodies (timed) ------------------------------------------------------------


def _run_certify(call, n, k, triples):
    rows = call("certificate.f_scan", symcert.f_scan, n)
    first = call("certificate.lemma31_check", symcert.lemma31_check, n, k)
    constants = call("certificate.cert_constants", symcert.cert_constants, n, k)
    second = call("certificate.lemma32_check", symcert.lemma32_check, n, k)
    theta = call("certificate.theta_for", symcert.theta_for, n, k)
    match = None
    if n <= CERTIFY_MATCH_N_MAX:
        match = call(
            "certificate.decomposition_coefficient_match",
            symcert.decomposition_coefficient_match,
            n,
            k,
        )
    residuals = [
        call("certificate.decomposition_residual", symcert.decomposition_residual, z, alpha, n, k)
        for z, alpha in triples
    ]
    return rows, first, constants, second, theta, match, residuals


def _run_reduce(call, point, k, alpha, span):
    n = len(point)
    profile = call("core.sigma_all", symcert.sigma_all, point)
    two_term = call("gaps.gen_nm_gap", symcert.gen_nm_gap, point, alpha, k)
    theta = call("certificate.theta_for", symcert.theta_for, n, k)
    quantitative = call("gaps.quantitative_gap", symcert.quantitative_gap, point, alpha, k, theta)
    cubic = call("reduction.associated_cubic", symcert.associated_cubic, point, k)
    disc = call("reduction.cubic_discriminant", symcert.cubic_discriminant, cubic)
    real_roots = call(
        "polys.real_root_count_with_multiplicity",
        polys.real_root_count_with_multiplicity,
        cubic.as_poly(),
    )
    triple = call(span, symcert.reduce_to_three, point, k)
    cascade = call("reduction.derivative_cascade", symcert.derivative_cascade, point)
    return profile, two_term, theta, quantitative, cubic, disc, real_roots, triple, cascade


def _run_cli(argv):
    done = subprocess.run(CLI_PREFIX + argv, capture_output=True, timeout=CLI_TIMEOUT_S)
    return done.stdout, done.returncode


def execute(op, args, call):
    kind, group = op[0], op[1]
    if kind == "report_bundle":
        return call("cli.report_bundle", symcert.report_bundle, *args)
    if kind == "certify":
        return _run_certify(call, *args)
    if kind == "reduce":
        span = "reduction.reduce_to_three." + ("clustered" if group == "clustered" else "regular")
        return _run_reduce(call, *args, span)
    if kind == "theta":
        return call("search.empirical_theta", symcert.empirical_theta, *args)
    if kind == "hunt":
        return call("search.find_counterexample_15", symcert.find_counterexample_15, *args)
    if kind == "scan":
        return call("search.structured_scan", symcert.structured_scan, *args)
    if kind == "cli":
        name, argv = args
        return call(f"cli.{name}", _run_cli, argv)
    raise ValueError(f"unknown op kind {kind!r}")


# -- checks and canonical output (untimed) -------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _json(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def verify(op, args, result, counters: dict) -> list[str]:
    """Exact checks that hold whatever the golden says, then the canonical
    text of the output.  Raises CheckFailed; bumps the layer counters."""
    kind = op[0]
    if kind == "report_bundle":
        _require(result["checks"]["all_pass"] is True, "report_bundle checks did not all pass")
        return [_json(result)]
    if kind == "certify":
        n, k, _ = args
        rows, first, constants, second, theta, match, residuals = result
        _require(all(row.all_positive for row in rows), f"f_scan({n}) has a nonpositive row")
        _require(first.all_positive, f"lemma 3.1 fails at ({n}, {k})")
        _require(second.all_positive, f"lemma 3.2 fails at ({n}, {k})")
        _require(0 < constants.theta1 < 1 and theta == constants.theta1, f"theta out of range at ({n}, {k})")
        _require(match in (None, True), f"coefficient match fails at ({n}, {k})")
        _require(all(r == 0 for r in residuals), f"nonzero decomposition residual at ({n}, {k})")
        return [
            _json([row.to_json_dict() for row in rows]),
            _json(first.to_json_dict()),
            _json(constants.to_json_dict()),
            _json(second.to_json_dict()),
            str(theta),
            str(match),
            # residuals are exactly zero, so the golden does not depend on the triples
            _json([str(r) for r in residuals]),
        ]
    if kind == "reduce":
        point, k, alpha = args
        profile, two_term, theta, quantitative, cubic, disc, real_roots, triple, cascade = result
        e = profile.e_at
        _require(two_term.gap >= 0 and quantitative.gap >= 0, "negative certified gap")
        _require(disc >= 0, "negative cubic discriminant")
        _require(real_roots == polys.degree(cubic.as_poly()), "cubic is not real-rooted")
        branch = triple.branch.value
        if branch == "CaseA":
            # Vieta identity: the moment gap times E_{k-1}^2 is the two-term gap
            reduced = symcert.gap_from_moments(*triple.vieta_moments, alpha)
            _require(reduced * e(k - 1) ** 2 == two_term.gap, "CaseA Vieta identity fails")
        elif branch == "CaseB":
            lead = e(k + 2)
            expected = (e(k + 1) / lead, e(k) / lead, e(k - 1) / lead)
            _require(triple.vieta_moments == expected, "CaseB moments differ from reversed means")
        if op[1].startswith("caseb-"):
            _require(branch != "CaseA", "a sigma_1 = 0 point at k = 2 took CaseA")
        counters["reduce_to_three.calls"] = counters.get("reduce_to_three.calls", 0) + 1
        counters["reduce_to_three.case_b"] = counters.get("reduce_to_three.case_b", 0) + (branch == "CaseB")
        return [
            _json([str(v) for v in profile.sigma]),
            _json(two_term.to_json_dict()),
            str(theta),
            _json(quantitative.to_json_dict()),
            _json(cubic.to_json_dict()),
            str(disc),
            str(real_roots),
            _json(triple.to_json_dict()),
            _json([[[str(c) for c in p] for p in level] for level in cascade.levels]),
        ]
    if kind == "theta":
        _require(result.min_ratio is not None and result.min_ratio >= result.certified, "ratio below certified theta")
        counters["empirical_theta.samples"] = counters.get("empirical_theta.samples", 0) + result.samples
        counters["empirical_theta.skipped"] = counters.get("empirical_theta.skipped", 0) + result.skipped
        return [_json(result.to_json_dict())]
    if kind == "hunt":
        m, n, _, _ = args
        if m == 2:
            # the two-term case is a theorem: no witness can exist
            _require(result is None, f"witness reported for m = 2, n = {n}")
        else:
            _require(result is not None, f"no witness for m = {m}, n = {n}")
            recheck = symcert.linear_combo_gap(result.x, result.coeffs).gap
            _require(recheck == result.gap and recheck < 0, "witness gap does not recheck negative")
        counters["find_counterexample_15.calls"] = counters.get("find_counterexample_15.calls", 0) + 1
        counters["find_counterexample_15.hits"] = counters.get("find_counterexample_15.hits", 0) + (result is not None)
        return ["null" if result is None else _json(result.to_json_dict())]
    if kind == "scan":
        _require(result.positive + result.zero + result.negative == result.evaluated, "scan counts do not add up")
        return [_json(result.to_json_dict())]
    raise ValueError(f"verify has no rule for op kind {kind!r}")


def load_goldens(workload: str):
    if workload == "cli-readme":
        return load_cli_goldens()
    with open(GOLDEN_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def golden_digest(table: dict, group: str, index: int) -> str:
    return table[group][index * DIGEST_CHARS : (index + 1) * DIGEST_CHARS]


def load_cli_goldens() -> dict:
    folder = GOLDEN_DIR / "cli-readme"
    with open(folder / "manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    out = {}
    for entry in manifest["commands"]:
        out[entry["name"]] = {
            "exit": entry["exit"],
            "stdout": (folder / entry["stdout"]).read_bytes(),
        }
    out[REPORT_FILE] = (folder / REPORT_FILE).read_bytes()
    return out


def verify_cli(args, result, goldens: dict) -> None:
    """Byte-identical stdout and the golden exit code; `report --out`
    must also write the golden document."""
    name, _ = args
    stdout, code = result
    golden = goldens[name]
    if name == "report":
        written = Path(REPORT_FILE)
        content = written.read_bytes() if written.is_file() else None
        written.unlink(missing_ok=True)
        _require(content == goldens[REPORT_FILE], "cli report: written document differs from golden")
    _require(code == golden["exit"], f"cli {name}: exit {code}, golden {golden['exit']}")
    _require(stdout == golden["stdout"], f"cli {name}: stdout differs from golden")
