"""Randomized exploration with exact confirmation.

Candidates come from seeded floating-point sampling, but nothing is ever
reported from float evidence: every would-be witness is rationalized by
continued fractions and re-verified in exact arithmetic first.  Sampling
is keyed per iteration, so identical (seed, budget, parameters) produce
identical reports.

Sampling, the float prefilter, the theta ratio and the family scans run
on Python integers, each on the window and the sides (gaps._gap_sides)
of the gap it estimates: the theta ratio on gaps._quantitative_window,
the scan on gaps._combo_window, so no Fraction is built for a sigma, a
mean or a window term.  The prefilter feeds the combination's span the
floats S_j / (D^j C(n, j)) of the sigmas S_j = sigma_j * D^j over one
denominator D, each the correctly rounded float(E_j), and every ratio,
gap and witness is an exact Fraction.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from .certificate import theta_for
from .core import (
    AllSamplesDegenerate,
    CertificateViolation,
    JsonResult,
    RationalLike,
    _sigma_numerators,
    as_rational,
    over_common_denominator,
)
from .gaps import _COMBO_SPAN, _combo_window, _gap_sides, _quantitative_window, _window
from .gaps import linear_combo_gap

_SEED_STRIDE = 1_000_003
_DENOMINATOR_BOUND = 10**6
_REFINE_STEPS = 60
_WITNESS_CAP = 10


def _rng_for(seed: int, iteration: int) -> random.Random:
    return random.Random(seed * _SEED_STRIDE + iteration)


def _rationalize(x: float) -> Fraction:
    """Fraction(x).limit_denominator(10^6), by the same continued-fraction
    walk on the integers of x.as_integer_ratio().  The last step picks
    the nearer of the two final convergent bounds by one integer
    comparison, as the stdlib does since Python 3.12 (earlier versions
    compare the two Fraction distances, which selects the same bound)."""
    num, den = x.as_integer_ratio()
    if den <= _DENOMINATOR_BOUND:
        return Fraction(num, den)
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > _DENOMINATOR_BOUND:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (_DENOMINATOR_BOUND - q0) // q1
    # p1/q1 lies d/(q1*den) from x, the other bound 1/(q1*(q0+k*q1)) from p1/q1
    if 2 * d * (q0 + k * q1) <= den:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


def _sample_entry(rng: random.Random, negative_rate: float = 0.35) -> Fraction:
    """Signed log-uniform magnitude exp(U[-3, 3]), rationalized by
    continued fractions with denominators capped at 10^6."""
    magnitude = math.exp(rng.uniform(-3.0, 3.0))
    if rng.random() < negative_rate:
        magnitude = -magnitude
    return _rationalize(magnitude)


class Witness(
    namedtuple("Witness", "x coeffs alpha k gap context seed iteration"), JsonResult
):
    """A confirmed finding.  The gap (or ratio) field is recomputed in
    exact arithmetic from the stored rational inputs before a witness is
    ever emitted.  A combination witness has no alpha and k (None), a
    theta-ratio witness no coeffs."""

    __slots__ = ()


# -- hunting violations of the linear-combination conjecture --------------


def _anchor_candidates(m: int, n: int) -> list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """Deterministic first probes; the known violating family (weights on
    the odd slots, a point mixing a scale with its reciprocal) leads."""
    if m < 3 or n < 2:
        return []
    coeffs = tuple(Fraction(1) if j % 2 == 0 else Fraction(0) for j in range(m))
    half = n // 2
    point = (Fraction(4),) * (n - half) + (Fraction(1, 4),) * half
    return [(coeffs, point)]


def _sample_coeffs(rng: random.Random, m: int) -> tuple[Fraction, ...]:
    """Sparse sign patterns first: slots are zero half the time, unit
    +/-1 most of the rest, occasionally a sampled magnitude."""
    while True:
        out = []
        for _ in range(m):
            roll = rng.random()
            if roll < 0.5:
                out.append(Fraction(0))
            elif roll < 0.85:
                out.append(Fraction(rng.choice((1, -1))))
            else:
                out.append(_sample_entry(rng))
        if any(out):
            return tuple(out)


def _float_combo_gap(point: Sequence[Fraction], coeffs: Sequence[Fraction]) -> float:
    """The combination gap in floats, each mean E_j correctly rounded from
    the integer quotient S_j / (D^j C(n, j)), and zero past n."""
    n = len(point)
    scale, ints = over_common_denominator(point)
    means = []
    power = 1
    for j, s in enumerate(_sigma_numerators(ints)):
        means.append(s / (power * math.comb(n, j)))
        power *= scale
    means += [0.0] * (len(coeffs) + 1)
    lhs, rhs = _gap_sides(_window(means.__getitem__, [float(c) for c in coeffs], *_COMBO_SPAN))
    return lhs - rhs


def _refine_point(
    rng: random.Random,
    point: tuple[Fraction, ...],
    coeffs: tuple[Fraction, ...],
) -> tuple[Fraction, ...]:
    """Greedy coordinate perturbation on the float estimate; the caller
    re-verifies whatever comes back.  The current point is always the
    best so far: each candidate moves one of its coordinates, so only
    that coordinate is rationalized again, and restored on rejection."""
    current = [float(v) for v in point]
    rational = [_rationalize(v) for v in current]
    best_gap = _float_combo_gap(rational, coeffs)
    for _ in range(_REFINE_STEPS):
        idx = rng.randrange(len(current))
        saved = current[idx], rational[idx]
        current[idx] = saved[0] * math.exp(rng.gauss(0.0, 0.3))
        rational[idx] = _rationalize(current[idx])
        gap = _float_combo_gap(rational, coeffs)
        if gap < best_gap:
            best_gap = gap
        else:
            current[idx], rational[idx] = saved
    return tuple(rational)


def find_counterexample_15(m: int, n: int, seed: int, budget: int) -> Witness | None:
    """Search for a point and coefficient vector with a negative
    linear-combination gap; None is a valid outcome.

    Deterministic given (m, n, seed, budget).  Anchor candidates are
    probed first, then seeded random sampling with greedy refinement of
    promising candidates.  Iterations run in order and the first hit,
    confirmed exactly, is returned at once.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 coefficients and n >= 1 entries")
    anchors = _anchor_candidates(m, n)
    for iteration in range(budget):
        if iteration < len(anchors):
            coeffs, point = anchors[iteration]
        else:
            rng = _rng_for(seed, iteration)
            coeffs = _sample_coeffs(rng, m)
            point = tuple(_sample_entry(rng) for _ in range(n))
            estimate = _float_combo_gap(point, coeffs)
            if estimate >= 0:
                scale = abs(estimate) + sum(abs(float(v)) for v in point) + 1.0
                if estimate > 0.02 * scale:
                    continue
                point = _refine_point(rng, point, coeffs)
        report = linear_combo_gap(point, coeffs)
        if report.gap < 0:
            return Witness(point, coeffs, None, None, report.gap, "Conjecture15", seed, iteration)
    return None


# -- bracketing the quantitative constant from above -----------------------


class ThetaSummary(
    namedtuple("ThetaSummary", "n k samples skipped certified min_ratio argmin"), JsonResult
):
    """The smallest observed ratio over the samples, its Witness, and the
    certified theta it must clear."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return super().to_json_dict(certified="certified_theta")


def empirical_theta(n: int, k: int, samples: int, seed: int) -> ThetaSummary:
    """Observe ratio = 1 - [a s_{k-1} + s_k][a s_{k+1} + s_{k+2}] / (a s_k + s_{k+1})^2
    over sampled (x, alpha), exactly.

    Samples with a vanishing denominator are skipped and counted (the
    ratio is undefined where the squared term collapses).  Every observed
    ratio must clear the certified theta; anything lower raises
    CertificateViolation.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    certified = theta_for(n, k)
    skipped = 0
    min_ratio: Fraction | None = None
    argmin: Witness | None = None
    for i in range(samples):
        rng = _rng_for(seed, i)
        alpha = _sample_entry(rng, negative_rate=0.5)
        if i % 8 == 7:
            # probe near the equality family: most entries at -alpha
            tail = _sample_entry(rng)
            jitter = Fraction(rng.randint(-1, 1), 10**4)
            point = (-alpha + jitter,) + (-alpha,) * (n - 2) + (tail,)
        else:
            point = tuple(_sample_entry(rng, negative_rate=0.5) for _ in range(n))
        # the window's integer scale cancels in the ratio
        window = _quantitative_window(*over_common_denominator((alpha, *point)), k)
        square, product = _gap_sides(window[0])
        if square == 0:
            skipped += 1
            continue
        ratio = 1 - Fraction(product, square)
        if ratio < certified:
            raise CertificateViolation(
                f"ratio {ratio} below certified theta {certified} at (n, k) = ({n}, {k}); "
                f"x = {[str(v) for v in point]}, alpha = {alpha}"
            )
        if min_ratio is None or ratio < min_ratio:
            min_ratio = ratio
            argmin = Witness(point, None, alpha, k, ratio, "ThetaRatio", seed, i)
    if min_ratio is None:
        raise AllSamplesDegenerate(
            f"all {samples} samples had a vanishing denominator at (n, k) = ({n}, {k})"
        )
    return ThetaSummary(n, k, samples, skipped, certified, min_ratio, argmin)


# -- structured coefficient-family scans -----------------------------------

FAMILIES = ("one-hot", "two-adjacent", "alternating-signs", "all-ones")


DEFAULT_GRID = (Fraction(4), Fraction(2), Fraction(1), Fraction(1, 2), Fraction(1, 4))


class ScanGrid(namedtuple("ScanGrid", "values", defaults=(DEFAULT_GRID,))):
    """Grid values for scan points (two-block patterns u..u v..v) and for
    the sliding coefficient in the two-adjacent family."""

    __slots__ = ()

    @classmethod
    def of(cls, values: Iterable[RationalLike]) -> ScanGrid:
        return cls(tuple(as_rational(v) for v in values))


class ScanReport(
    namedtuple("ScanReport", "family n evaluated positive zero negative witnesses"), JsonResult
):
    """Sign counts of one family scan, with its first negative points as
    Witness records (at most _WITNESS_CAP)."""

    __slots__ = ()


def _family_vectors(family: str, m: int, grid: ScanGrid) -> Iterator[tuple[Fraction, ...]]:
    """One family's coefficient vectors, streamed in scan order."""
    if family == "one-hot":
        for j in range(m):
            yield tuple(Fraction(1) if i == j else Fraction(0) for i in range(m))
    elif family == "all-ones":
        yield (Fraction(1),) * m
    elif family == "alternating-signs":
        # support on every other slot, all sign choices on the support
        support = range(0, m, 2)
        for mask in range(2 ** len(support)):
            vec = [Fraction(0)] * m
            for bit, j in enumerate(support):
                vec[j] = Fraction(1) if (mask >> bit) & 1 == 0 else Fraction(-1)
            yield tuple(vec)
    elif family == "two-adjacent":
        for j in range(m - 1):
            for a in grid.values:
                vec = [Fraction(0)] * m
                vec[j] = a
                vec[j + 1] = Fraction(1)
                yield tuple(vec)
    else:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")


def _scan_work(family: str, n: int, grid: ScanGrid) -> int:
    """The point entries structured_scan(family, n, grid) evaluates, in
    closed form: each of the family's vectors times |grid|^2 * n points
    of n + 1 entries.  No vector is built; an alternating-signs count
    past 2^64 reads as 2^64, past any cap.  0 for the arguments the scan
    refuses."""
    if n < 1:
        return 0
    g = len(grid.values)
    vectors = {
        "one-hot": n,
        "all-ones": 1,
        "alternating-signs": 2 ** min((n + 1) // 2, 64),
        "two-adjacent": (n - 1) * g,
    }.get(family, 0)
    return vectors * g * g * n * (n + 1)


def _grid_points(length: int, grid: ScanGrid) -> Iterator[tuple[Fraction, ...]]:
    """The two-block points u..u v..v of one length, one at a time."""
    for u in grid.values:
        for v in grid.values:
            for p in range(1, length):
                yield (u,) * p + (v,) * (length - p)


def structured_scan(family: str, n: int, grid: ScanGrid | None = None) -> ScanReport:
    """Grid-evaluate the linear-combination gap over one coefficient
    family (m = n coefficients, points of length n + 1), tabulating the
    sign regions.  Purely exploratory; no sign is asserted.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    grid = grid or ScanGrid()
    positive = zero = negative = 0
    witnesses: list[Witness] = []
    evaluated = 0
    for coeffs in _family_vectors(family, n, grid):
        for point in _grid_points(n + 1, grid):
            # linear_combo_gap's window: n weights on n + 1 entries need no trim
            lhs, rhs = _gap_sides(_combo_window(point, coeffs)[0])
            if lhs > rhs:
                positive += 1
            elif lhs == rhs:
                zero += 1
            else:
                negative += 1
                if len(witnesses) < _WITNESS_CAP:
                    gap = linear_combo_gap(point, coeffs).gap
                    witnesses.append(
                        Witness(point, coeffs, None, None, gap, "Conjecture15", 0, evaluated)
                    )
            evaluated += 1
    return ScanReport(family, n, evaluated, positive, zero, negative, tuple(witnesses))
