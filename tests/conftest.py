import importlib.util
import math
import random
import warnings
from fractions import Fraction
from itertools import combinations

import hypothesis.strategies as st
from hypothesis import settings

from symcert import __version__
from symcert.certificate import (
    cert_constants,
    decomposition_residual,
    theta_for,
    theta_row,
    window_check,
)
from symcert.core import SymProfile, _sigma_numerators, as_point, over_common_denominator, to_json
from symcert.gaps import _window, gen_nm_gap, quantitative_gap

# Hypothesis imports libcst, when it is installed, to write the patch of a
# failing example.  That import warns that mypy_extensions.TypedDict is
# deprecated, and under -W error the warning ends the run with an
# INTERNALERROR in place of the failure report, so import it once here with
# only that warning ignored.
if importlib.util.find_spec("libcst") is not None:
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
        )
        import libcst  # noqa: F401

settings.register_profile("default", deadline=None)
settings.load_profile("default")

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=30)
nonzero_rationals = rationals.filter(lambda q: q != 0)
nonneg_rationals = st.fractions(min_value=0, max_value=10, max_denominator=30)

points = st.lists(rationals, min_size=3, max_size=8).map(tuple)
nonneg_points = st.lists(nonneg_rationals, min_size=2, max_size=8).map(tuple)
triples = st.lists(rationals, min_size=3, max_size=3).map(tuple)


def rand_fraction(rng, span=10, max_denominator=50) -> Fraction:
    den = rng.randint(1, max_denominator)
    return Fraction(rng.randint(-span * den, span * den), den)


def horner(poly, x) -> Fraction:
    """Exact value of the polynomial poly (lowest power first) at x."""
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


# sigma_naive enumerates 2^n subsets; refuse anything bigger than this.
NAIVE_LIMIT = 20


def sigma_naive(x) -> SymProfile:
    """The oracle for sigma_all: sigma_k by explicit enumeration of all
    k-subsets, on the entries' integer numerators over one common
    denominator."""
    point = as_point(x)
    n = len(point)
    if n > NAIVE_LIMIT:
        raise ValueError(f"sigma_naive enumerates 2^n subsets; refusing n={n} > {NAIVE_LIMIT}")
    scale, ints = over_common_denominator(point)
    sig = [Fraction(1)]
    for k in range(1, n + 1):
        total = sum(math.prod(c) for c in combinations(ints, k))
        sig.append(Fraction(total, scale**k))
    return SymProfile(n, tuple(sig))


def scan_family_vectors(family, m, grid):
    """The scan's coefficient vectors as a list, in scan order: a copy of
    the eager enumerator that search._family_vectors streams, so the scan
    references do not read the code they check."""
    if family == "one-hot":
        return [
            tuple(Fraction(1) if i == j else Fraction(0) for i in range(m)) for j in range(m)
        ]
    if family == "all-ones":
        return [tuple(Fraction(1) for _ in range(m))]
    if family == "alternating-signs":
        support = [j for j in range(m) if j % 2 == 0]
        vectors = []
        for mask in range(2 ** len(support)):
            vec = [Fraction(0)] * m
            for bit, j in enumerate(support):
                vec[j] = Fraction(1) if (mask >> bit) & 1 == 0 else Fraction(-1)
            vectors.append(tuple(vec))
        return vectors
    if family == "two-adjacent":
        vectors = []
        for j in range(m - 1):
            for a in grid.values:
                vec = [Fraction(0)] * m
                vec[j] = a
                vec[j + 1] = Fraction(1)
                vectors.append(tuple(vec))
        return vectors
    raise ValueError(f"unknown family {family!r}")


def window_float_combo_gap(point, coeffs) -> float:
    """search._float_combo_gap as it was when it formed the sides mid * mid
    and low * high itself, kept verbatim as the bit-for-bit reference for
    the prefilter that reads gaps._gap_sides."""
    n = len(point)
    scale, ints = over_common_denominator(point)
    means = []
    power = 1
    for j, s in enumerate(_sigma_numerators(ints)):
        means.append(s / (power * math.comb(n, j)))
        power *= scale
    means += [0.0] * (len(coeffs) + 1)
    low, mid, high = _window(means.__getitem__, [float(c) for c in coeffs], 0, 3)
    return mid * mid - low * high


def scan_grid_points(length, grid):
    """The scan's two-block points u..u v..v as a list, in scan order: a
    copy of the eager enumerator that search._grid_points streams."""
    points = []
    for u in grid.values:
        for v in grid.values:
            for p in range(1, length):
                points.append((u,) * p + (v,) * (length - p))
    return points


def reference_report_bundle(n_max: int = 8, seed: int = 0, samples: int = 200) -> dict:
    """report_bundle as it was before its sampled checks ran on integers:
    every sample is drawn as Fraction entries and checked through the
    public gen_nm_gap, quantitative_gap and decomposition_residual.  The
    three sample loops are kept verbatim as the reference the report must
    match document for document."""
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

    def rand_fraction() -> Fraction:
        return Fraction(randint(-4000, 4000), randint(1, 400))

    gen_nm_nonneg = 0
    gen_nm_zero = 0
    for _ in range(samples):
        n = randint(3, min(n_max, 8))
        point = tuple(rand_fraction() for _ in range(n))
        k = randint(1, n - 2)
        gap = gen_nm_gap(point, rand_fraction(), k).gap
        if gap >= 0:
            gen_nm_nonneg += 1
        if gap == 0:
            gen_nm_zero += 1

    quantitative_nonneg = 0
    for _ in range(samples):
        n = randint(3, min(n_max, 8))
        point = tuple(rand_fraction() for _ in range(n))
        k = randint(0, n - 1)
        report = quantitative_gap(point, rand_fraction(), k, theta_for(n, k))
        if report.gap >= 0:
            quantitative_nonneg += 1

    residual_zero = 0
    for _ in range(samples):
        n = randint(4, n_max)
        k = randint(1, n - 2)
        z = tuple(rand_fraction() for _ in range(3))
        if decomposition_residual(z, rand_fraction(), n, k) == 0:
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
