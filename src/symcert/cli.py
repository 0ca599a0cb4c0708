"""Command-line front end.

Subcommands: sigma, verify, chain, certificate, lemmas, reduce, search,
theta, report.  Exit codes: 0 computation done / all checks passed,
1 a verified mathematical finding (e.g. a confirmed negative gap),
2 usage or precondition error.  Handlers return raw results; run turns
each into its JSON form once (core.to_json), so every rational prints as
a lossless "p/q" string and output is byte-identical across runs with
the same configuration.  Each handler imports the modules it runs, so a
command loads only what it needs.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys
from collections.abc import Sequence
from itertools import islice

from . import __version__
from .core import (
    MAX_INT_DIGITS,
    AllSamplesDegenerate,
    CertificateViolation,
    as_rational,
    parse_point,
    sigma_all,
    to_json,
)

_DEFAULTS = {"seed": 0, "budget": 1000, "samples": 1000, "n_max": 8, "format": "json"}

# past core.MAX_INT_DIGITS no binomial of a certificate can print; the
# margin keeps an estimate's rounding from refusing a printable window
# (those stop near 2,150 digits)
_DIGIT_MARGIN = 100

# The most work each sized command takes on, counted from the parsed argv
# before any starts (_check_work): for lemmas and report one unit per
# window (n, k) with 4 <= n <= n_max and 1 <= k <= n-2, and for report one
# per sample; for search theta and search conjecture15 one unit is a
# sample or an iteration at the README sizes, and a longer point or more
# coefficients cost more (_theta_work, _hunt_work); one per point entry
# search scan evaluates (search._scan_work); one per pair of entries of
# the verify --ineq remark point.  At its cap each command runs a few
# seconds; README states every cap.
MAX_WORK = {
    "lemmas": 100_000,
    "report": 50_000,
    "search conjecture15": 20_000,
    "search theta": 100_000,
    "search scan": 1_000_000,
    "verify --ineq remark": 16_000_000,
}

# JSON chunks per write: a few hundred KB of text at most
_JSON_BATCH = 8192

# Flags whose value is a rational.  argparse takes a separate value such
# as -1/2 or -1e3 for an option, since only -2 and -0.5 match its
# negative-number pattern; a token starting with "-" and a digit or "."
# is no option of this parser, so it is joined to the flag before it.
# argparse also takes any unique prefix of a flag ("--alph"), and no other
# option of this parser starts with "--a" or "--t", so every prefix past
# "--" names one of these flags.
_RATIONAL_FLAGS = ("--alpha", "--theta")
_NUMBER_AFTER_MINUS = re.compile(r"-[\d.]")


def main(argv: Sequence[str] | None = None) -> None:
    sys.exit(run(list(sys.argv[1:] if argv is None else argv)))


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_rational_values(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _effective_config(args)
        payload, finding = args.handler(args)
        # the one conversion to JSON form; a value too long to print
        # raises ValueError here and exits 2 like any other bad input
        _emit(to_json(payload), args.format)
    except (ValueError, TypeError, AllSamplesDegenerate) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificateViolation as exc:
        print(f"finding: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # str(MemoryError()) is empty, so the line names the error itself
        print("error: out of memory", file=sys.stderr)
        return 2
    return 1 if finding else 0


def _join_rational_values(argv: Sequence[str]) -> list[str]:
    """["--alpha", "-1/2"] -> ["--alpha=-1/2"], for each rational flag or
    a prefix of it that argparse would accept ("--alph")."""
    out: list[str] = []
    for token in argv:
        if out and _is_rational_flag(out[-1]) and _NUMBER_AFTER_MINUS.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _is_rational_flag(token: str) -> bool:
    return len(token) > 2 and any(flag.startswith(token) for flag in _RATIONAL_FLAGS)


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
    q.set_defaults(handler=_cmd_search_conjecture)

    q = search_sub.add_parser("theta", help="empirical ratio bracketing for one (n, k)")
    common(q)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--samples", type=int, default=None)
    q.add_argument("--seed", type=int, default=None)
    q.set_defaults(handler=_cmd_search_theta)

    q = search_sub.add_parser("scan", help="structured coefficient-family scan")
    common(q)
    q.add_argument("--family", required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--grid", default=None, help="JSON array of strings")
    q.set_defaults(handler=_cmd_search_scan)

    p = sub.add_parser("report", help="aggregate reproducible verification document")
    common(p)
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out", default=None, help="write the document to this path")
    p.set_defaults(handler=_cmd_report)

    return parser


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError("config file is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("config file must hold a flat JSON object")
    return data


def _effective_config(args: argparse.Namespace) -> None:
    """Resolve the config keys onto args (flags beat the config file,
    which beats _DEFAULTS) and parse the exact numeric inputs in place;
    a parse error names its flag."""
    file_values = _load_config_file(getattr(args, "config", None))
    for key, default in _DEFAULTS.items():
        value = getattr(args, key, None)
        if value is None:
            value = file_values.get(key, default)
        if key != "format" and isinstance(value, (bool, float)):
            # int() would truncate 1.5, overflow on 1e400 and take true as 1
            raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
        setattr(args, key, str(value) if key == "format" else int(value))
    if args.format not in ("json", "text"):
        raise ValueError(f"format must be json or text, got {args.format!r}")
    parsers = {
        "x": parse_point,
        "coeffs": lambda text: parse_point(text, "a coefficient list"),
        "grid": lambda text: parse_point(text, "a grid"),
        "alpha": as_rational,
        "theta": as_rational,
    }
    for key, parse in parsers.items():
        text = getattr(args, key, None)
        if text is not None:
            try:
                setattr(args, key, parse(text))
            except ValueError as exc:
                raise ValueError(f"--{key}: {exc}") from None


def _write_json(payload: object, handle: io.TextIOBase) -> None:
    """The one JSON writer, for stdout and report --out alike: json.dump's
    encoder, streamed, so no whole string is built.  Its chunks are joined
    in batches, since one write per chunk costs about 2 us on a pipe."""
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    while batch := "".join(islice(chunks, _JSON_BATCH)):
        handle.write(batch)
    handle.write("\n")


def _emit(payload: object, fmt: str) -> None:
    if fmt == "json":
        _write_json(payload, sys.stdout)
    else:
        for line in _text_lines(payload, indent=0):
            print(line)


def _text_lines(value: object, indent: int) -> list[str]:
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


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required for this command")


# -- handlers: each returns (payload, finding); run serializes the payload ----

# the inputs each gap reads, in payload order (and argument order), and
# the name of its evaluator in gaps; verify refuses any other input flag
_GAPS = {
    "newton": (("x", "k"), "newton_gap"),
    "gen-nm": (("x", "alpha", "k"), "gen_nm_gap"),
    "combo": (("x", "coeffs"), "linear_combo_gap"),
    "quantitative": (("x", "alpha", "k", "theta"), "quantitative_gap"),
    "liu-ren": (("x", "alpha", "k"), "liu_ren_gap"),
    "remark": (("n", "k"), "remark_violation"),
}


def _cmd_sigma(args: argparse.Namespace) -> tuple[object, bool]:
    profile = sigma_all(args.x)
    return {"x": args.x, "n": profile.n, "sigma": profile.sigma, "e": profile.e_list()}, False


def _cmd_verify(args: argparse.Namespace) -> tuple[object, bool]:
    from . import gaps

    ineq = args.ineq
    names, evaluator = _GAPS[ineq]
    for flag in dict.fromkeys(name for reads, _ in _GAPS.values() for name in reads):
        if getattr(args, flag) is not None and flag not in names:
            readers = " or ".join(other for other, (reads, _) in _GAPS.items() if flag in reads)
            raise ValueError(f"--{flag} applies only to --ineq {readers}, not {ineq}")
    _require(args, *(name for name in names if name != "theta"))
    if ineq == "remark":
        # one unit per pair of entries of remark_violation's constant point
        _check_work("verify --ineq remark", ("--n", max(args.n, 0) ** 2))
    if ineq == "quantitative" and args.theta is None:
        from .certificate import theta_for

        args.theta = theta_for(len(args.x), args.k)
    inputs = {name: getattr(args, name) for name in names}
    result = getattr(gaps, evaluator)(*inputs.values())
    if ineq == "remark":
        return {"ineq": ineq, "witness": result}, result.report.relation is gaps.Relation.NEGATIVE
    return {"ineq": ineq, **inputs, "report": result}, result.relation is gaps.Relation.NEGATIVE


def _cmd_chain(args: argparse.Namespace) -> tuple[object, bool]:
    from .gaps import gen_maclaurin_chain, maclaurin_chain_check

    if args.alpha is None:
        holds = maclaurin_chain_check(args.x)
        return {"kind": "classical", "x": args.x, "holds": holds}, not holds
    result = gen_maclaurin_chain(args.x, args.alpha)
    payload = {"kind": "generalized", "x": args.x, "alpha": args.alpha, **result.to_json_dict()}
    return payload, not result.holds


def _binomial_digits_exceed(n: int, j: int, limit: int) -> bool:
    """Whether log10 C(n, j) > limit, summing log10((n-m+i)/i) for
    i = 1..m, m = min(j, n-j), until the sum passes limit.  Every term is
    at least log10 2, so the loop stops within limit/log10(2) terms; no
    binomial is built and no float overflows, whatever the size of n."""
    m = min(j, n - j)
    total = 0.0
    for i in range(1, m + 1):
        total += math.log10(n - m + i) - math.log10(i)
        if total > limit:
            return True
    return False


def _cmd_certificate(args: argparse.Namespace) -> tuple[object, bool]:
    from .certificate import cert_constants

    n, k = args.n, args.k
    if n >= 4 and 1 <= k <= n - 2:
        # C(n, j) peaks at j = n/2: check the printed binomial nearest it
        j = min(range(k - 1, k + 3), key=lambda j: abs(n - 2 * j))
        if _binomial_digits_exceed(n, j, MAX_INT_DIGITS + _DIGIT_MARGIN):
            raise ValueError(
                f"the binomials of certificate ({n}, {k}) have more than "
                f"{MAX_INT_DIGITS} digits and cannot be printed"
            )
    return cert_constants(n, k), False


def _windows(n_max: int) -> int:
    """How many windows (n, k) have 4 <= n <= n_max and 1 <= k <= n-2:
    n-2 for each n, about n_max^2/2 in all."""
    return (n_max - 2) * (n_max - 1) // 2 - 1 if n_max >= 4 else 0


def _theta_work(n: int) -> int:
    """The units of one search theta sample on a point of n entries, one
    at n = 4.  Fitted to one sample's time on a 2-vCPU Xeon: 0.063 ms at
    n = 4, 2.2 ms at 32, 40 ms at 64 and 1.3 s at 128; the sigmas of n
    entries over a denominator of about 20n bits grow as n^5."""
    n = max(n, 0)
    return 1 + n * n // 64 + n**5 // 1_650_000


def _hunt_work(m: int, n: int) -> int:
    """The units of one search conjecture15 iteration with m coefficients
    on a point of n entries, one at m = 3 and n = 4.  Fitted to the slow
    iterations, those that refine their candidate through 61 float gaps,
    on a 2-vCPU Xeon: 0.29 ms at the README sizes, 4 s at n = 64 (m = 2),
    where the sigmas grow as n^5, and 13 s at m = 320,000 (n = 1), where
    every sampled vector and float window holds m entries."""
    m, n = max(m, 0), max(n, 0)
    return 1 + m // 7 + n**5 // 76_000


def _check_work(command: str, *stages: tuple[str, int]) -> None:
    """Refuse an argv whose work exceeds its cap in MAX_WORK, before any
    starts.  Stages are cumulative (flag, units) pairs, each counting the
    flags up to its own with the later ones at a value that blames no one;
    the last is the whole work.  The error names the first flag over the cap."""
    cap, units = MAX_WORK[command], stages[-1][1]
    if units > cap:
        flag = next(flag for flag, work in stages if work > cap)
        raise ValueError(
            f"{flag}: {command} would take {units} units of work, above its cap of {cap}"
        )


def _cmd_lemmas(args: argparse.Namespace) -> tuple[object, bool]:
    if args.n_max < 4:
        # the lemmas start at n = 4: a smaller bound would pass with nothing checked
        raise ValueError(f"lemmas needs n_max >= 4, got {args.n_max}")
    _check_work("lemmas", ("--n-max", _windows(args.n_max)))
    from .certificate import window_check

    checks = [window_check(n, k) for n in range(4, args.n_max + 1) for k in range(1, n - 1)]
    all_pass = all(check.passed for check in checks)
    payload = {"n_max": args.n_max, "pairs": len(checks), "all_pass": all_pass, "rows": checks}
    return payload, not all_pass


def _cmd_reduce(args: argparse.Namespace) -> tuple[object, bool]:
    from .reduction import associated_cubic, cubic_discriminant, reduce_to_three

    cubic = associated_cubic(args.x, args.k)
    payload = {
        "x": args.x,
        "k": args.k,
        "cubic": cubic,
        # all four means vanish on a Degenerate window: the zero cubic has none
        "discriminant": cubic_discriminant(cubic) if any(cubic) else None,
        **reduce_to_three(args.x, args.k).to_json_dict(),
    }
    return payload, False


def _cmd_theta(args: argparse.Namespace) -> tuple[object, bool]:
    from .certificate import theta_row

    return theta_row(args.n, args.k), False


def _cmd_search_conjecture(args: argparse.Namespace) -> tuple[object, bool]:
    per_iteration = _hunt_work(args.m, args.n)
    _check_work(
        "search conjecture15",
        ("--m", _hunt_work(args.m, 1)),
        ("--n", per_iteration),
        ("--budget", per_iteration * args.budget),
    )
    from .search import find_counterexample_15

    witness = find_counterexample_15(args.m, args.n, args.seed, args.budget)
    payload = {
        "m": args.m,
        "n": args.n,
        "seed": args.seed,
        "budget": args.budget,
        "witness": witness,
    }
    return payload, witness is not None


def _cmd_search_theta(args: argparse.Namespace) -> tuple[object, bool]:
    per_sample = _theta_work(args.n)
    _check_work("search theta", ("--n", per_sample), ("--samples", per_sample * args.samples))
    from .search import empirical_theta

    return empirical_theta(args.n, args.k, args.samples, args.seed), False


def _cmd_search_scan(args: argparse.Namespace) -> tuple[object, bool]:
    from .search import ScanGrid, _scan_work, structured_scan

    grid = ScanGrid() if args.grid is None else ScanGrid.of(args.grid)
    default, chosen = (_scan_work(args.family, args.n, g) for g in (ScanGrid(), grid))
    _check_work("search scan", ("--n", default), ("--grid", chosen))
    report = structured_scan(args.family, args.n, grid)
    return report, report.negative > 0


def _cmd_report(args: argparse.Namespace) -> tuple[object, bool]:
    windows = _windows(args.n_max)
    _check_work("report", ("--n-max", windows), ("--samples", windows + args.samples))
    from .report import report_bundle

    document = report_bundle(args.n_max, args.seed, args.samples)
    failed = not document["checks"]["all_pass"]
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            _write_json(document, handle)
        return {"written": args.out, "n_max": args.n_max}, failed
    return document, failed

