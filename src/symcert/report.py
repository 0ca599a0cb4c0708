"""The aggregate report: certified constants, lemma scans, and seeded
sample verification in one reproducible document."""

from __future__ import annotations

import random
from math import lcm

from . import __version__
from .certificate import _residual, _window, cert_constants, theta_for, theta_row, window_check
from .core import to_json
from .gaps import _gap_sides, _gen_nm_window, _quantitative_window


def report_bundle(n_max: int = 8, seed: int = 0, samples: int = 200) -> dict:
    """One reproducible document: certified constants, lemma scans, and
    seeded sample verification for every window up to n_max.

    Identical configuration produces a byte-identical document; the
    configuration and seeds are embedded so the claim is checkable.  The
    document comes back in its JSON form, ready for json.dump.

    The sampled checks are sign tests on integers: each sample is drawn
    as (numerator, denominator) pairs and put over one lcm of its raw
    denominators, and each check reads the sign (or zero) of the window
    terms of gen_nm_gap and quantitative_gap through their own
    gaps._gen_nm_window, gaps._quantitative_window and gaps._gap_sides, or
    of the residual of decomposition_residual (certificate._residual).
    Those functions divide the same integers by a positive denominator, so
    the counts equal theirs on the same draws.  The CLI caps the work of a
    report at 50,000 windows and samples in all (cli.MAX_WORK).
    """
    if n_max < 4:
        # the windows start at n = 4: a smaller bound would pass with nothing checked
        raise ValueError(f"report needs n_max >= 4, got {n_max}")
    if samples < 1:
        raise ValueError(f"report needs samples >= 1, got {samples}")

    theta_rows = [theta_row(n, k) for n in range(3, n_max + 1) for k in range(n)]

    certificate_rows = []
    lemmas_pass = True
    for n in range(4, n_max + 1):
        for k in range(1, n - 1):
            ok = window_check(n, k).passed
            lemmas_pass = lemmas_pass and ok
            certificate_rows.append({**cert_constants(n, k).to_json_dict(), "pass": ok})

    rng = random.Random(seed)
    getrandbits = rng.getrandbits

    def randint(a: int, b: int) -> int:
        """rng.randint(a, b): a plus the rejection loop that randrange runs
        on getrandbits, without its argument checks."""
        width = b - a + 1
        bits = width.bit_length()
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        return a + r

    def rand_pair() -> tuple[int, int]:
        """A sampled rational as its unreduced (numerator, denominator),
        in the order Fraction(randint(-4000, 4000), randint(1, 400)) drew."""
        return randint(-4000, 4000), randint(1, 400)

    def cleared(pairs: list[tuple[int, int]]) -> tuple[int, list[int]]:
        """(D, [x*D]) for the rationals of pairs, with D the lcm of their
        raw denominators: a positive multiple of the reduced lcm."""
        scale = lcm(*(den for _, den in pairs))
        return scale, [num * (scale // den) for num, den in pairs]

    gen_nm_nonneg = 0
    gen_nm_zero = 0
    for _ in range(samples):
        n = randint(3, min(n_max, 8))
        point = [rand_pair() for _ in range(n)]
        k = randint(1, n - 2)
        lhs, rhs = _gap_sides(_gen_nm_window(*cleared([rand_pair(), *point]), k)[0])
        if lhs >= rhs:
            gen_nm_nonneg += 1
        if lhs == rhs:
            gen_nm_zero += 1

    quantitative_nonneg = 0
    for _ in range(samples):
        n = randint(3, min(n_max, 8))
        point = [rand_pair() for _ in range(n)]
        k = randint(0, n - 1)
        terms = _quantitative_window(*cleared([rand_pair(), *point]), k)[0]
        lhs, rhs = _gap_sides(terms, *theta_for(n, k).as_integer_ratio())
        if lhs >= rhs:
            quantitative_nonneg += 1

    residual_zero = 0
    for _ in range(samples):
        n = randint(4, n_max)
        k = randint(1, n - 2)
        _, z_alpha = cleared([rand_pair() for _ in range(4)])
        window = _window(n, k)
        if _residual(*z_alpha, window.constants.quad, window.cleared) == 0:
            residual_zero += 1

    checks = {
        "lemmas_pass": lemmas_pass,
        "gen_nm_nonnegative": gen_nm_nonneg == samples,
        "gen_nm_zero_gaps": gen_nm_zero,
        "quantitative_nonnegative": quantitative_nonneg == samples,
        "decomposition_all_zero": residual_zero == samples,
    }
    checks["all_pass"] = bool(
        checks["lemmas_pass"]
        and checks["gen_nm_nonnegative"]
        and checks["quantitative_nonnegative"]
        and checks["decomposition_all_zero"]
    )

    document = {
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
    return to_json(document)
