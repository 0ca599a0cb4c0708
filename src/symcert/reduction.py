"""Reduction of an n-tuple to its associated real-rooted cubic.

Starting from P(t) = prod (t - x_i), repeated partial differentiation of
the homogenization F(t, s) preserves real-rootedness, and the mixed
partials of total order n-3 are proportional to the cubics

    E_{k-1} t^3 - 3 E_k t^2 s + 3 E_{k+1} t s^2 - E_{k+2} s^3,

one for each window k = 1..n-2.  Real-rootedness is decided exactly
(Sturm chains / discriminant signs over rationals); the decimal roots
are a convenience output only and never feed an exact check.  They are
printed to ROOT_DIGITS significant digits, but what is guaranteed is a
residual below 1e-12 relative to the largest coefficient: the printed
digits are not certified, and closely spaced roots can be right to as
few as 9 of them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from decimal import Decimal, localcontext
from enum import Enum
from fractions import Fraction

from . import polys
from .core import (
    JsonResult,
    RationalLike,
    as_point,
    as_rational,
    as_triple,
    binomial,
    over_common_denominator,
    sigma_all,
    to_json,
)
from .gaps import _gap_sides, _window, gen_nm_gap

ROOT_DIGITS = 40
_NEWTON_DEN_BOUND = 10**80
_BISECTION_WIDTH = Fraction(1, 10**45)


class Branch(Enum):
    CASE_A = "CaseA"
    CASE_B = "CaseB"
    DEGENERATE = "Degenerate"


class Cubic(namedtuple("Cubic", "c0 c1 c2 c3"), JsonResult):
    """Coefficients c0 t^3 + c1 t^2 + c2 t + c3 with
    (c0, c1, c2, c3) = (E_{k-1}, -3 E_k, 3 E_{k+1}, -E_{k+2})."""

    __slots__ = ()

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(self)

    def as_poly(self) -> polys.Poly:
        # lowest power first, for the polynomial utilities
        return polys.trim([self.c3, self.c2, self.c1, self.c0])

    def to_json_dict(self) -> dict:
        return {"coefficients": to_json(self.coefficients())}


def _window_means(x: Iterable[RationalLike], k: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(E_{k-1}, E_k, E_{k+1}, E_{k+2}) of the point, for 1 <= k <= n-2."""
    point = as_point(x)
    n = len(point)
    if n < 3 or not 1 <= k <= n - 2:
        raise ValueError(f"need n >= 3 and 1 <= k <= n-2, got k={k}, n={n}")
    e = sigma_all(point).e_at
    return (e(k - 1), e(k), e(k + 1), e(k + 2))


def associated_cubic(x: Iterable[RationalLike], k: int) -> Cubic:
    e0, e1, e2, e3 = _window_means(x, k)
    return Cubic(e0, -3 * e1, 3 * e2, -e3)


def cubic_discriminant(cubic: Cubic | Sequence[RationalLike]) -> Fraction:
    """Exact discriminant of the (degree-reduced) polynomial.

    Nonnegative certifies all-real roots at degrees 2 and 3; degrees
    below 2 are vacuously real-rooted and report 1.  Coefficients are
    highest power first, as a Cubic holds them.
    """
    coeffs = [as_rational(c) for c in cubic]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if not coeffs:
        raise ValueError("the zero polynomial has no discriminant")
    deg = len(coeffs) - 1
    if deg == 3:
        a, b, c, d = coeffs
        return (
            18 * a * b * c * d
            - 4 * b**3 * d
            + b**2 * c**2
            - 4 * a * c**3
            - 27 * a**2 * d**2
        )
    if deg == 2:
        a, b, c = coeffs
        return b**2 - 4 * a * c
    return Fraction(1)


class CascadeResult(namedtuple("CascadeResult", "n levels")):
    """Derivative cascade of the homogenized point polynomial.

    levels[l][j] holds the coefficients (highest power in t first, up to
    a nonzero constant factor) of the order-l mixed partial with j
    derivatives in s: sum_m (-1)^m C(n-l, m) E_{j+m} t^(n-l-m) s^m
    dehomogenized at s = 1.  The final level contains the n-2 cubics.
    """

    __slots__ = ()

    @property
    def cubics(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.levels[-1]

    def all_polynomials(self) -> list[tuple[Fraction, ...]]:
        return [p for level in self.levels for p in level]


def derivative_cascade(x: Iterable[RationalLike]) -> CascadeResult:
    """Materialize every cascade level down to the cubics, certifying
    each nonzero polynomial real-rooted by an exact Sturm count."""
    point = as_point(x)
    n = len(point)
    if n < 3:
        raise ValueError(f"the cascade needs n >= 3, got n={n}")
    # the means over one common denominator: each cascade polynomial is
    # then an integer polynomial divided by `scale`
    scale, scaled = over_common_denominator(sigma_all(point).e_list())
    levels = []
    for order in range(n - 2):
        deg = n - order
        signed = [(-1) ** m * binomial(deg, m) for m in range(deg + 1)]
        row = []
        for j in range(order + 1):
            numerators = [c * v for c, v in zip(signed, scaled[j:])]
            if not polys.is_real_rooted(numerators[::-1]):
                raise ArithmeticError(
                    f"cascade polynomial at order {order}, offset {j} lost real-rootedness"
                )
            row.append(tuple(Fraction(c, scale) for c in numerators))
        levels.append(tuple(row))
    return CascadeResult(n, tuple(levels))


class RootTriple(
    namedtuple(
        "RootTriple",
        "branch vieta_moments roots precision degenerate_means",
        defaults=(None,),
    ),
    JsonResult,
):
    """Roots and exact moments of the normalized associated cubic.

    vieta_moments are the exact (E_1, E_2, E_3) of the roots read off the
    coefficient ratios; they carry no approximation error regardless of
    the quality of the decimal root strings.  In the degenerate branch
    (both window ends vanish) there is no cubic to normalize, and
    degenerate_means stores the surviving pair (E_k, E_{k+1}) instead.
    """

    __slots__ = ()


def reduce_to_three(x: Iterable[RationalLike], k: int) -> RootTriple:
    """Normalize the window-k cubic and extract its three real roots.

    E_{k-1} != 0 divides through by the leading mean; E_{k-1} = 0 with
    E_{k+2} != 0 uses the reversed polynomial instead; if both vanish the
    branch is degenerate and the direct gap (see degenerate_direct_gap)
    applies.
    """
    means = _window_means(x, k)
    if means[0] != 0:
        branch = Branch.CASE_A
    elif means[3] != 0:
        means = means[::-1]
        branch = Branch.CASE_B
    else:
        return RootTriple(Branch.DEGENERATE, None, None, ROOT_DIGITS, degenerate_means=means[1:3])
    lead = means[0]
    moments = (means[1] / lead, means[2] / lead, means[3] / lead)
    m1, m2, m3 = moments
    roots = real_cubic_roots(-3 * m1, 3 * m2, -m3)
    return RootTriple(branch, moments, tuple(_decimal_str(r) for r in roots), ROOT_DIGITS)


def degenerate_direct_gap(
    e_k: RationalLike, e_k1: RationalLike, alpha: RationalLike
) -> Fraction:
    """Two-term gap when both window ends vanish, written as an explicit
    sum of three nonnegative pieces:
    (a E_k + E_{k+1})^2/2 + a^2 E_k^2/2 + E_{k+1}^2/2."""
    ek = as_rational(e_k)
    ek1 = as_rational(e_k1)
    a = as_rational(alpha)
    (s,) = _window((ek, ek1).__getitem__, (a, 1), 0, 1)
    return s**2 / 2 + a**2 * ek**2 / 2 + ek1**2 / 2


def gap_from_moments(
    m1: RationalLike, m2: RationalLike, m3: RationalLike, alpha: RationalLike
) -> Fraction:
    """Three-variable two-term gap evaluated on exact moments (E_0 = 1):
    (a m1 + m2)^2 - (a + m1)(a m2 + m3).

    For a CaseA reduction this times E_{k-1}^2 reproduces the original
    two-term gap exactly.
    """
    moments = (1, as_rational(m1), as_rational(m2), as_rational(m3))
    square, product = _gap_sides(_window(moments.__getitem__, (as_rational(alpha), 1), 0, 3))
    return square - product


def lemma21_identity_residual(
    z: Iterable[RationalLike], alpha: RationalLike
) -> tuple[Fraction, Fraction]:
    """Three-variable square identity: 18 times the two-term gap equals a
    sum of three squares of pairwise products of the shifted entries.

    Returns (gap, residual); the residual is identically zero and the gap
    therefore nonnegative for every real triple and alpha.
    """
    z1, z2, z3 = as_triple(z)
    a = as_rational(alpha)
    gap = 18 * gen_nm_gap((z1, z2, z3), a, 1).gap
    u = (z1 + a) * (z2 + a)
    v = (z1 + a) * (z3 + a)
    w = (z2 + a) * (z3 + a)
    squares = (u - v) ** 2 + (u - w) ** 2 + (v - w) ** 2
    return gap, gap - squares


# -- real root extraction for monic cubics --------------------------------


def real_cubic_roots(b: RationalLike, c: RationalLike, d: RationalLike) -> tuple[Fraction, Fraction, Fraction]:
    """High-precision rational approximations (exact where roots repeat)
    to the three real roots of t^3 + b t^2 + c t + d, ascending.

    Raises ValueError if the cubic has a nonreal pair.  Distinct roots
    come from the closed-form trigonometric seeds polished by one exact
    Newton step; ill-conditioned cases fall back to Sturm bisection.
    """
    b = as_rational(b)
    c = as_rational(c)
    d = as_rational(d)
    shift = b / 3
    # depressed form u^3 + P u + Q with u = t + b/3
    P = c - b**2 / 3
    Q = 2 * b**3 / 27 - b * c / 3 + d
    disc = -4 * P**3 - 27 * Q**2
    if disc < 0:
        raise ValueError("cubic has a nonreal root pair")
    if disc == 0:
        if P == 0:
            r = -shift
            return (r, r, r)
        simple = 3 * Q / P - shift
        double = -3 * Q / (2 * P) - shift
        ordered = sorted([simple, double, double])
        return (ordered[0], ordered[1], ordered[2])
    poly = [d, c, b, Fraction(1)]
    # a positive integer multiple of the cubic: Newton steps and the
    # acceptance test are invariant under that scaling
    scaled = polys.primitive_part(poly)
    roots = _trig_seeds_polished(scaled, P, Q, shift)
    if roots is None or not _roots_acceptable(scaled, roots):
        roots = _bisection_roots(poly)
    ordered = sorted(roots)
    return (ordered[0], ordered[1], ordered[2])


def _newton_step(scaled: polys.IntPoly, r: Fraction) -> Fraction | None:
    """One Newton step for the integer cubic from r = p/q, limited to
    denominators of _NEWTON_DEN_BOUND; None where the slope vanishes.

    With F = q^3 f(p/q) and G = q^2 f'(p/q) from homogeneous integer
    Horner, r - f(r)/f'(r) = (pG - F) / (qG).
    """
    p, q = r.numerator, r.denominator
    slope = polys.homogeneous_value(polys.derivative(scaled), p, q)
    if slope == 0:
        return None
    value = polys.homogeneous_value(scaled, p, q)
    return Fraction(p * slope - value, q * slope).limit_denominator(_NEWTON_DEN_BOUND)


def _trig_seeds_polished(
    scaled: polys.IntPoly, P: Fraction, Q: Fraction, shift: Fraction
) -> list[Fraction] | None:
    try:
        p_f = float(P)
        q_f = float(Q)
        radius = 2.0 * math.sqrt(-p_f / 3.0)
        if radius == 0.0 or not math.isfinite(radius):
            return None
        arg = 3.0 * q_f / (p_f * radius)
        arg = max(-1.0, min(1.0, arg))
        angle = math.acos(arg) / 3.0
        seeds = [radius * math.cos(angle - 2.0 * math.pi * j / 3.0) for j in range(3)]
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    roots = []
    for seed in seeds:
        r = _newton_step(scaled, Fraction(seed).limit_denominator(10**17) - shift)
        if r is None:
            return None
        roots.append(r)
    return roots


def _roots_acceptable(scaled: polys.IntPoly, roots: Sequence[Fraction]) -> bool:
    """Distinct roots with |f(r)| <= 10^-20 max|c_i| max(1, |r|)^3 each,
    tested as q^3 times that inequality at r = p/q, in integers."""
    if len(set(roots)) != 3:
        return False
    scale = max(abs(c) for c in scaled)
    return all(
        abs(polys.homogeneous_value(scaled, r.numerator, r.denominator)) * 10**20
        <= scale * max(r.denominator, abs(r.numerator)) ** 3
        for r in roots
    )


def _bisection_roots(poly: polys.Poly) -> list[Fraction]:
    """Exact Sturm isolation for a monic cubic with three distinct real
    roots, then bisection of each isolated root (see _tighten_root).
    Isolating intervals carry the sign-change counts of their ends, so
    each cut evaluates the chain once, at the new point."""
    chain = polys.sturm_chain(poly)
    # Cauchy's bound: every root of the monic cubic lies strictly inside
    # |t| < 1 + max|c_i|, so neither end is a root
    bound = Fraction(1) + max(abs(c) for c in poly)
    lo, hi = -bound, bound
    stack = [(lo, polys.sign_changes_at(chain, lo), hi, polys.sign_changes_at(chain, hi))]
    roots: list[Fraction] = []
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        count = v_lo - v_hi
        if count == 0:
            continue
        if count == 1:
            roots.append(_tighten_root(chain[0], lo, hi))
            continue
        mid = _nonroot_point(chain[0], lo, hi)
        v_mid = polys.sign_changes_at(chain, mid)
        stack.append((lo, v_lo, mid, v_mid))
        stack.append((mid, v_mid, hi, v_hi))
    return roots


def _nonroot_point(p0: polys.IntPoly, lo: Fraction, hi: Fraction) -> Fraction:
    span = hi - lo
    point = lo + span / 2
    step = span / 1_000_003
    while polys.sign_at(p0, point) == 0:
        point += step
    return point


def _tighten_root(p0: polys.IntPoly, lo: Fraction, hi: Fraction) -> Fraction:
    """Bisect (lo, hi], which holds one simple root and whose ends are not
    roots, on the sign of the integer cubic p0 alone; then take one
    Newton step on p0."""
    s_lo = polys.sign_at(p0, lo)
    while hi - lo > _BISECTION_WIDTH:
        mid = (lo + hi) / 2
        s_mid = polys.sign_at(p0, mid)
        if s_mid == 0:
            return mid
        if s_mid != s_lo:
            hi = mid
        else:
            lo = mid
    r = ((lo + hi) / 2).limit_denominator(_NEWTON_DEN_BOUND)
    polished = _newton_step(p0, r)
    return r if polished is None else polished


def _decimal_str(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = ROOT_DIGITS
        return str(Decimal(value.numerator) / Decimal(value.denominator))
