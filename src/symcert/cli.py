"""Command-line front end.

Subcommands: sigma, verify, chain, certificate, lemmas, reduce, search,
theta, report.  Exit codes: 0 computation done / all checks passed,
1 a verified mathematical finding (e.g. a confirmed negative gap),
2 usage or precondition error.  All rationals serialize as "p/q" strings
so JSON output round-trips losslessly and is byte-identical across runs
with the same configuration.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Sequence

from . import __version__
from .certificate import (
    cert_constants,
    decomposition_residual,
    is_special_window,
    theta_for,
    window_check,
)
from .core import as_rational, format_point, parse_point, sigma_all
from .gaps import (
    GapReport,
    PreconditionError,
    Relation,
    gen_maclaurin_chain,
    gen_nm_gap,
    linear_combo_gap,
    liu_ren_gap,
    maclaurin_chain_check,
    newton_gap,
    quantitative_gap,
    remark_violation,
)
from .reduction import associated_cubic, cubic_discriminant, reduce_to_three
from .search import (
    CertificateViolation,
    ScanGrid,
    empirical_theta,
    find_counterexample_15,
    structured_scan,
)

_CONFIG_KEYS = ("seed", "budget", "samples", "n_max", "format")
_DEFAULTS = {"seed": 0, "budget": 1000, "samples": 1000, "n_max": 8, "format": "json"}


@dataclass
class RunConfig:
    """Effective options for one invocation; flags beat the config file,
    which beats _DEFAULTS.  Parsed numeric inputs are exact and
    round-trip to their string forms."""

    command: str
    format: str
    seed: int
    budget: int
    samples: int
    n_max: int
    x: Optional[tuple[Fraction, ...]] = None
    coeffs: Optional[tuple[Fraction, ...]] = None
    alpha: Optional[Fraction] = None
    theta: Optional[Fraction] = None
    n: Optional[int] = None
    k: Optional[int] = None
    m: Optional[int] = None


def main(argv: Optional[Sequence[str]] = None) -> None:
    sys.exit(run(list(sys.argv[1:] if argv is None else argv)))


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        config = _effective_config(args)
        payload, finding = args.handler(config, args)
    except (PreconditionError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificateViolation as exc:
        print(f"finding: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, config)
    return 1 if finding else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcert",
        description="Exact verification of two-term symmetric-mean inequalities.",
    )
    parser.add_argument("--version", action="version", version=f"symcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default=None)
        p.add_argument("--config", default=None, help="flat JSON key/value file")

    p = sub.add_parser("sigma", help="elementary symmetric functions and means of a point")
    common(p)
    p.add_argument("--x", required=True, help='JSON array of strings, e.g. \'["4","1/4"]\'')
    p.set_defaults(handler=_cmd_sigma)

    p = sub.add_parser("verify", help="evaluate one inequality instance exactly")
    common(p)
    p.add_argument(
        "--ineq",
        required=True,
        choices=("newton", "gen-nm", "combo", "quantitative", "liu-ren", "remark"),
    )
    p.add_argument("--x", default=None)
    p.add_argument("--coeffs", default=None, help="JSON array of strings")
    p.add_argument("--alpha", default=None)
    p.add_argument("--theta", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("chain", help="Maclaurin chain (classical, or generalized with --alpha)")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--alpha", default=None)
    p.set_defaults(handler=_cmd_chain)

    p = sub.add_parser("certificate", help="decomposition constants for one (n, k)")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_certificate)

    p = sub.add_parser("lemmas", help="exact positivity scans over 4 <= n <= n-max")
    common(p)
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.set_defaults(handler=_cmd_lemmas)

    p = sub.add_parser("reduce", help="associated cubic, branch, moments, and roots")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("theta", help="certified quantitative constant for one (n, k)")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_theta)

    p = sub.add_parser("search", help="randomized exploration with exact confirmation")
    search_sub = p.add_subparsers(dest="search_command", required=True)

    q = search_sub.add_parser("conjecture15", help="hunt linear-combination violations")
    common(q)
    q.add_argument("--m", type=int, required=True, help="coefficient count")
    q.add_argument("--n", type=int, required=True, help="point length")
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--budget", type=int, default=None)
    q.set_defaults(handler=_cmd_search_conjecture, command="search")

    q = search_sub.add_parser("theta", help="empirical ratio bracketing for one (n, k)")
    common(q)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--samples", type=int, default=None)
    q.add_argument("--seed", type=int, default=None)
    q.set_defaults(handler=_cmd_search_theta, command="search")

    q = search_sub.add_parser("scan", help="structured coefficient-family scan")
    common(q)
    q.add_argument("--family", required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--grid", default=None, help="JSON array of strings")
    q.set_defaults(handler=_cmd_search_scan, command="search")

    p = sub.add_parser("report", help="aggregate reproducible verification document")
    common(p)
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out", default=None, help="write the document to this path")
    p.set_defaults(handler=_cmd_report)

    return parser


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a flat JSON object")
    return data


def _effective_config(args: argparse.Namespace) -> RunConfig:
    file_values = _load_config_file(getattr(args, "config", None))
    merged = {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in file_values:
            merged[key] = file_values[key]
        else:
            merged[key] = _DEFAULTS[key]
    config = RunConfig(
        command=args.command,
        format=str(merged["format"]),
        seed=int(merged["seed"]),
        budget=int(merged["budget"]),
        samples=int(merged["samples"]),
        n_max=int(merged["n_max"]),
    )
    if config.format not in ("json", "text"):
        raise ValueError(f"format must be json or text, got {config.format!r}")
    if getattr(args, "x", None) is not None:
        config.x = parse_point(args.x)
    if getattr(args, "coeffs", None) is not None:
        config.coeffs = parse_point(args.coeffs)
    if getattr(args, "alpha", None) is not None:
        config.alpha = as_rational(args.alpha)
    if getattr(args, "theta", None) is not None:
        config.theta = as_rational(args.theta)
    for key in ("n", "k", "m"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, int(value))
    return config


def _emit(payload: dict, config: RunConfig) -> None:
    if config.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in _text_lines(payload, indent=0):
            print(line)


def _text_lines(value: Any, indent: int) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {item}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.extend(_text_lines(item, indent))
                lines.append("")
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required for this command")


def _report_payload(report: GapReport, **inputs: Any) -> dict:
    payload = {key: value for key, value in inputs.items() if value is not None}
    payload["report"] = report.to_json_dict()
    return payload


# -- handlers ---------------------------------------------------------------


def _cmd_sigma(config: RunConfig, args: argparse.Namespace) -> tuple[dict, bool]:
    _require(config, "x")
    profile = sigma_all(config.x)
    payload = {
        "x": format_point(config.x),
        "n": profile.n,
        "sigma": [str(v) for v in profile.sigma],
        "e": [str(v) for v in profile.e_list()],
    }
    return payload, False


def _cmd_verify(config: RunConfig, args: argparse.Namespace) -> tuple[dict, bool]:
    ineq = args.ineq
    if config.theta is not None and ineq != "quantitative":
        raise ValueError(f"--theta applies only to --ineq quantitative, not {ineq}")
    if ineq == "newton":
        _require(config, "x", "k")
        report = newton_gap(config.x, config.k)
        payload = _report_payload(report, ineq=ineq, x=format_point(config.x), k=config.k)
    elif ineq == "gen-nm":
        _require(config, "x", "alpha", "k")
        report = gen_nm_gap(config.x, config.alpha, config.k)
        payload = _report_payload(
            report, ineq=ineq, x=format_point(config.x), alpha=str(config.alpha), k=config.k
        )
    elif ineq == "combo":
        _require(config, "x", "coeffs")
        report = linear_combo_gap(config.x, config.coeffs)
        payload = _report_payload(
            report, ineq=ineq, x=format_point(config.x), coeffs=format_point(config.coeffs)
        )
    elif ineq == "quantitative":
        _require(config, "x", "alpha", "k")
        theta = config.theta
        if theta is None:
            theta = theta_for(len(config.x), config.k)
        report = quantitative_gap(config.x, config.alpha, config.k, theta)
        payload = _report_payload(
            report,
            ineq=ineq,
            x=format_point(config.x),
            alpha=str(config.alpha),
            k=config.k,
            theta=str(theta),
        )
    elif ineq == "liu-ren":
        _require(config, "x", "alpha", "k")
        report = liu_ren_gap(config.x, config.alpha, config.k)
        payload = _report_payload(
            report, ineq=ineq, x=format_point(config.x), alpha=str(config.alpha), k=config.k
        )
    elif ineq == "remark":
        _require(config, "n", "k")
        witness = remark_violation(config.n, config.k)
        report = witness.report
        payload = {"ineq": ineq, "witness": witness.to_json_dict()}
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown inequality {ineq!r}")
    return payload, report.relation is Relation.NEGATIVE


def _cmd_chain(config: RunConfig, args: argparse.Namespace) -> tuple[dict, bool]:
    _require(config, "x")
    if config.alpha is None:
        holds = maclaurin_chain_check(config.x)
        payload = {"kind": "classical", "x": format_point(config.x), "holds": holds}
        return payload, not holds
    result = gen_maclaurin_chain(config.x, config.alpha)
    payload = {
        "kind": "generalized",
        "x": format_point(config.x),
        "alpha": str(config.alpha),
        **result.to_json_dict(),
    }
    return payload, not result.holds


def _cmd_certificate(config: RunConfig, args: argparse.Namespace) -> tuple[dict, bool]:
    _require(config, "n", "k")
    constants = cert_constants(config.n, config.k)
    return constants.to_json_dict(), False


def _cmd_lemmas(config: RunConfig, args: argparse.Namespace) -> tuple[dict, bool]:
    if config.n_max < 4:
        # the lemmas start at n = 4: a smaller bound would pass with nothing checked
        raise ValueError(f"lemmas needs n_max >= 4, got {config.n_max}")
    rows = []
    all_pass = True
    for n in range(4, config.n_max + 1):
        for k in range(1, n - 1):
            check = window_check(n, k)
            all_pass = all_pass and check.passed
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "lemma31": check.lemma31,
                    "lemma32": check.lemma32,
                    "theta1": str(check.theta1),
                    "f_scan": check.f_scan,
                    "pass": check.passed,
                }
            )
    payload = {"n_max": config.n_max, "pairs": len(rows), "all_pass": all_pass, "rows": rows}
    return payload, not all_pass


def _cmd_reduce(config: RunConfig, args: argparse.Namespace) -> tuple[dict, bool]:
    _require(config, "x", "k")
    cubic = associated_cubic(config.x, config.k)
    triple = reduce_to_three(config.x, config.k)
    payload = {
        "x": format_point(config.x),
        "k": config.k,
        "cubic": cubic.to_json_dict(),
        "discriminant": str(cubic_discriminant(cubic)),
        **triple.to_json_dict(),
    }
    return payload, False


def _cmd_theta(config: RunConfig, args: argparse.Namespace) -> tuple[dict, bool]:
    _require(config, "n", "k")
    value = theta_for(config.n, config.k)
    payload = {
        "n": config.n,
        "k": config.k,
        "theta": str(value),
        "source": "special-case" if is_special_window(config.n, config.k) else "certificate",
    }
    return payload, False


def _cmd_search_conjecture(config: RunConfig, args: argparse.Namespace) -> tuple[dict, bool]:
    _require(config, "m", "n")
    witness = find_counterexample_15(config.m, config.n, config.seed, config.budget)
    payload = {
        "m": config.m,
        "n": config.n,
        "seed": config.seed,
        "budget": config.budget,
        "witness": None if witness is None else witness.to_json_dict(),
    }
    return payload, witness is not None


def _cmd_search_theta(config: RunConfig, args: argparse.Namespace) -> tuple[dict, bool]:
    _require(config, "n", "k")
    summary = empirical_theta(config.n, config.k, config.samples, config.seed)
    return summary.to_json_dict(), False


def _cmd_search_scan(config: RunConfig, args: argparse.Namespace) -> tuple[dict, bool]:
    _require(config, "n")
    grid = ScanGrid() if args.grid is None else ScanGrid.of(parse_point(args.grid))
    report = structured_scan(args.family, config.n, grid)
    return report.to_json_dict(), report.negative > 0


def _cmd_report(config: RunConfig, args: argparse.Namespace) -> tuple[dict, bool]:
    document = report_bundle(config.n_max, config.seed, config.samples)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        return {"written": args.out, "n_max": config.n_max}, False
    failed = not document["checks"]["all_pass"]
    return document, failed


# -- the aggregate document -------------------------------------------------


def report_bundle(n_max: int = 8, seed: int = 0, samples: int = 200) -> dict:
    """One reproducible document: certified constants, lemma scans, and
    seeded sample verification for every window up to n_max.

    Identical configuration produces a byte-identical document; the
    configuration and seeds are embedded so the claim is checkable.
    """
    if n_max < 3:
        raise ValueError(f"report needs n_max >= 3, got {n_max}")
    if samples < 1:
        raise ValueError(f"report needs samples >= 1, got {samples}")

    theta_rows = []
    for n in range(3, n_max + 1):
        for k in range(n):
            theta_rows.append(
                {
                    "n": n,
                    "k": k,
                    "theta": str(theta_for(n, k)),
                    "source": "special-case" if is_special_window(n, k) else "certificate",
                }
            )

    certificate_rows = []
    lemmas_pass = True
    for n in range(4, n_max + 1):
        for k in range(1, n - 1):
            ok = window_check(n, k).passed
            lemmas_pass = lemmas_pass and ok
            certificate_rows.append({**cert_constants(n, k).to_json_dict(), "pass": ok})

    rng = random.Random(seed)

    def rand_fraction() -> Fraction:
        return Fraction(rng.randint(-4000, 4000), rng.randint(1, 400))

    gen_nm_nonneg = 0
    gen_nm_zero = 0
    for _ in range(samples):
        n = rng.randint(3, max(3, min(n_max, 8)))
        point = tuple(rand_fraction() for _ in range(n))
        k = rng.randint(1, n - 2)
        gap = gen_nm_gap(point, rand_fraction(), k).gap
        if gap >= 0:
            gen_nm_nonneg += 1
        if gap == 0:
            gen_nm_zero += 1

    quantitative_nonneg = 0
    for _ in range(samples):
        n = rng.randint(3, max(3, min(n_max, 8)))
        point = tuple(rand_fraction() for _ in range(n))
        k = rng.randint(0, n - 1)
        report = quantitative_gap(point, rand_fraction(), k, theta_for(n, k))
        if report.gap >= 0:
            quantitative_nonneg += 1

    residual_zero = 0
    if n_max >= 4:
        for _ in range(samples):
            n = rng.randint(4, n_max)
            k = rng.randint(1, n - 2)
            z = tuple(rand_fraction() for _ in range(3))
            if decomposition_residual(z, rand_fraction(), n, k) == 0:
                residual_zero += 1

    checks = {
        "lemmas_pass": lemmas_pass,
        "gen_nm_nonnegative": gen_nm_nonneg == samples,
        "gen_nm_zero_gaps": gen_nm_zero,
        "quantitative_nonnegative": quantitative_nonneg == samples,
        "decomposition_all_zero": (n_max < 4) or residual_zero == samples,
    }
    checks["all_pass"] = bool(
        checks["lemmas_pass"]
        and checks["gen_nm_nonnegative"]
        and checks["quantitative_nonnegative"]
        and checks["decomposition_all_zero"]
    )

    return {
        "config": {
            "version": __version__,
            "n_max": n_max,
            "seed": seed,
            "samples": samples,
        },
        "theta": theta_rows,
        "certificates": certificate_rows,
        "checks": checks,
    }
