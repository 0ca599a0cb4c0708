"""The explicit quantitative certificate: binomial quadruple, split
constants, the exact sum-of-nonnegatives decomposition of the reduced
three-variable gap, and the integer scans behind its positivity lemmas.

For n >= 4 and 1 <= k <= n-2, writing (a, b, c, d) for the four
consecutive binomials C(n, k-1)..C(n, k+2), the three-variable gap

    L(z) = (alpha*b*s1 + c*s2)^2 - (3*alpha*a + b*s1)(alpha*c*s2 + 3*d*s3)

decomposes exactly as theta1*(alpha*b*s1 + c*s2)^2 + theta2*W(z, t) + V(z)
with W a sum of three squares and V a positive-definite quadratic form in
(alpha*z_i, z_p*z_q).  theta1 is then an admissible quantitative constant.

The residual of that decomposition is evaluated on integers: M times it,
with M the lcm of the constants' denominators, is a polynomial with
integer coefficients, homogeneous of degree 4 in (z1, z2, z3, alpha), so
it runs on the point's integer numerators over one common denominator D
and is divided by M*D^4 once.  theta1 is homogeneous of degree 0 in
(a, b, c, d), so theta_for evaluates it at a scale-free quadruple of
small polynomials in (n, k) and takes constant time in n.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (
    JsonResult,
    RationalLike,
    as_rational,
    as_triple,
    binomial,
    over_common_denominator,
)
from .polys import MPoly


def _check_general_range(n: int, k: int) -> None:
    if n < 4 or not 1 <= k <= n - 2:
        raise ValueError(f"need n >= 4 and 1 <= k <= n-2, got (n, k) = ({n}, {k})")


@dataclass(frozen=True)
class BinomQuad:
    """Four consecutive binomials a = C(n,k-1) .. d = C(n,k+2)."""

    n: int
    k: int
    a: int
    b: int
    c: int
    d: int


def binom_quad(n: int, k: int) -> BinomQuad:
    _check_general_range(n, k)
    return BinomQuad(
        n, k, binomial(n, k - 1), binomial(n, k), binomial(n, k + 1), binomial(n, k + 2)
    )


@dataclass(frozen=True)
class CertConstants(JsonResult):
    n: int
    k: int
    quad: BinomQuad
    theta1: Fraction
    theta2: Fraction
    t: Fraction
    A1: Fraction
    A2: Fraction
    A3: Fraction

    def to_json_dict(self) -> dict:
        data = super().to_json_dict(quad="binomials")
        data["binomials"] = {"a": self.quad.a, "b": self.quad.b, "c": self.quad.c, "d": self.quad.d}
        return data


# theta1 = 3*mixed/den, written once over plain scalars (a, b, c, d):
# cert_constants and lemma31_check take these at the binomials,
# theta_for at the scale-free quadruple.


def _mixed_term(a, b, c, d):
    return 2 * a * c**3 + 2 * b**3 * d - b**2 * c**2 - 3 * a * b * c * d


def _theta_den(a, b, c, d):
    return 6 * a * c**3 + 6 * b**3 * d - 4 * b**2 * c**2


def _theta1(a, b, c, d) -> Fraction:
    return Fraction(3 * _mixed_term(a, b, c, d), _theta_den(a, b, c, d))


def _scale_free_quad(n: int, k: int) -> tuple[int, int, int, int]:
    """binom_quad(n, k) divided by the positive factor C(n, k-1)/(k(k+1)(k+2)):
    the same ratios b/a, c/b, d/c, from entries of at most three factors."""
    return (
        k * (k + 1) * (k + 2),
        (n - k + 1) * (k + 1) * (k + 2),
        (n - k + 1) * (n - k) * (k + 2),
        (n - k + 1) * (n - k) * (n - k - 1),
    )


@lru_cache(maxsize=None)
def cert_constants(n: int, k: int) -> CertConstants:
    """Solve the three coefficient-matching equations for (theta1, theta2, t)
    and form the leftover quadratic-form coefficients A1, A2, A3:

        theta1 = 3(2ac^3 + 2b^3d - b^2c^2 - 3abcd) / (6ac^3 + 6b^3d - 4b^2c^2)
        theta2 = c^2 (3ac - b^2)^2 / (6ac^3 + 6b^3d - 4b^2c^2)
        t      = b (3bd - c^2) / (c (3ac - b^2))
        A1     = b^2 (1 - theta1) - 2 theta2
        A2     = c^2 (1 - theta1) - 2 t^2 theta2
        A3     = 18 t theta2 - 9 a d

    The denominators are strictly positive throughout the admissible
    range (see lemma31_check), so everything here is a plain rational.
    """
    quad = binom_quad(n, k)
    a, b, c, d = quad.a, quad.b, quad.c, quad.d
    theta1 = _theta1(a, b, c, d)
    theta2 = Fraction(c**2 * (3 * a * c - b**2) ** 2, _theta_den(a, b, c, d))
    t = Fraction(b * (3 * b * d - c**2), c * (3 * a * c - b**2))
    A1 = b**2 * (1 - theta1) - 2 * theta2
    A2 = c**2 * (1 - theta1) - 2 * t**2 * theta2
    A3 = 18 * t * theta2 - 9 * a * d
    return CertConstants(n, k, quad, theta1, theta2, t, A1, A2, A3)


# L, W, V and the residual, written once over plain scalars so that the
# same code evaluates at integers and expands over polys.MPoly variables.


def _sigmas(z1, z2, z3):
    return z1 + z2 + z3, z1 * z2 + z1 * z3 + z2 * z3, z1 * z2 * z3


def _head(s1, s2, alpha, quad: BinomQuad):
    return alpha * quad.b * s1 + quad.c * s2


def _l(z1, z2, z3, alpha, quad: BinomQuad):
    s1, s2, s3 = _sigmas(z1, z2, z3)
    return _head(s1, s2, alpha, quad) ** 2 - (3 * alpha * quad.a + quad.b * s1) * (
        alpha * quad.c * s2 + 3 * quad.d * s3
    )


def _w(z1, z2, z3, alpha, t):
    return (
        (z1 - z2) ** 2 * (alpha + t * z3) ** 2
        + (z1 - z3) ** 2 * (alpha + t * z2) ** 2
        + (z2 - z3) ** 2 * (alpha + t * z1) ** 2
    )


def _v(z1, z2, z3, alpha, A1, A2, A3):
    sum_sq = z1**2 + z2**2 + z3**2
    pair_sq = z1**2 * z2**2 + z1**2 * z3**2 + z2**2 * z3**2
    return A1 * alpha**2 * sum_sq + A2 * pair_sq + A3 * alpha * z1 * z2 * z3


@dataclass(frozen=True)
class _ClearedConstants:
    """The decomposition's constants times M, the lcm of the denominators
    of theta1, theta2/tq^2, A1, A2 and A3, with t = tn/tq: all integers."""

    scale: int
    theta1: int
    theta2: int  # M*theta2/tq^2, the factor of _w(z, alpha*tq, tn)
    tn: int
    tq: int
    A1: int
    A2: int
    A3: int


def _cleared(consts: CertConstants) -> _ClearedConstants:
    tn, tq = consts.t.numerator, consts.t.denominator
    scale, (theta1, theta2, A1, A2, A3) = over_common_denominator(
        (consts.theta1, consts.theta2 / tq**2, consts.A1, consts.A2, consts.A3)
    )
    return _ClearedConstants(scale, theta1, theta2, tn, tq, A1, A2, A3)


def _residual(z1, z2, z3, alpha, quad: BinomQuad, m: _ClearedConstants):
    """M * (L - theta1*head^2 - theta2*W - V).  W is homogeneous of degree
    2 in (alpha, t), so tq^2 * W(z, alpha, t) = _w(z, alpha*tq, tn)."""
    s1, s2, _ = _sigmas(z1, z2, z3)
    return (
        m.scale * _l(z1, z2, z3, alpha, quad)
        - m.theta1 * _head(s1, s2, alpha, quad) ** 2
        - m.theta2 * _w(z1, z2, z3, alpha * m.tq, m.tn)
        - _v(z1, z2, z3, alpha, m.A1, m.A2, m.A3)
    )


def w_value(z: Iterable[RationalLike], alpha: RationalLike, t: RationalLike) -> Fraction:
    """W(z, t) = sum over pairs of (z_i - z_j)^2 (alpha + t z_l)^2, the
    manifestly nonnegative square form."""
    return _w(*as_triple(z), as_rational(alpha), as_rational(t))


def w_value_expanded(z: Iterable[RationalLike], alpha: RationalLike, t: RationalLike) -> Fraction:
    """W through its expanded sigma form:

        2 a^2 sum z_i^2 - 2 a^2 s2 + 2 a t s1 s2
        + 2 t^2 sum_{p<q} z_p^2 z_q^2 - 2 t^2 s1 s3 - 18 a t s3

    Agreement with w_value is itself a checked identity.
    """
    z1, z2, z3 = as_triple(z)
    a = as_rational(alpha)
    t = as_rational(t)
    s1, s2, s3 = _sigmas(z1, z2, z3)
    sum_sq = z1**2 + z2**2 + z3**2
    pair_sq = z1**2 * z2**2 + z1**2 * z3**2 + z2**2 * z3**2
    return (
        2 * a**2 * sum_sq
        - 2 * a**2 * s2
        + 2 * a * t * s1 * s2
        + 2 * t**2 * pair_sq
        - 2 * t**2 * s1 * s3
        - 18 * a * t * s3
    )


def v_value(z: Iterable[RationalLike], alpha: RationalLike, consts: CertConstants) -> Fraction:
    """V(z) = A1 a^2 sum z_i^2 + A2 sum_{p<q} z_p^2 z_q^2 + A3 a s3.

    Nonnegative for in-range constants: A1 a^2 z_i^2 + A2 z_p^2 z_q^2 >=
    2 sqrt(A1 A2) |a s3| > |A3 a s3| / 3 for each of the three pairings.
    """
    return _v(*as_triple(z), as_rational(alpha), consts.A1, consts.A2, consts.A3)


def l_value(z: Iterable[RationalLike], alpha: RationalLike, n: int, k: int) -> Fraction:
    """The reduced three-variable gap
    (alpha*b*s1 + c*s2)^2 - (3*alpha*a + b*s1)(alpha*c*s2 + 3*d*s3)."""
    return _l(*as_triple(z), as_rational(alpha), binom_quad(n, k))


def decomposition_residual(
    z: Iterable[RationalLike], alpha: RationalLike, n: int, k: int
) -> Fraction:
    """L(z) - theta1*(alpha*b*s1 + c*s2)^2 - theta2*W(z, t) - V(z).

    Identically zero: the constants were solved to make it so, and the
    tests confirm this both at random points and by full coefficient
    matching.  Evaluated as M * residual on the integer numerators of
    (z1, z2, z3, alpha) over their common denominator D; every term is
    homogeneous of degree 4, so the value is that integer over M*D^4.
    """
    consts = cert_constants(n, k)
    cleared = _cleared(consts)
    den, point = over_common_denominator((*as_triple(z), as_rational(alpha)))
    return Fraction(_residual(*point, consts.quad, cleared), cleared.scale * den**4)


def decomposition_coefficient_match(n: int, k: int) -> bool:
    """Expand the decomposition residual symbolically in (z1, z2, z3, alpha)
    and verify that every monomial coefficient vanishes.

    The expansion runs the very scaled residual decomposition_residual
    evaluates, over polys.MPoly variables, so it proves the identity for
    that code.  Conclusive where random-point sampling could in principle
    miss a measure-zero discrepancy.
    """
    consts = cert_constants(n, k)
    return not _residual(*MPoly.variables(4), consts.quad, _cleared(consts))


@dataclass(frozen=True)
class Lemma31Report(JsonResult):
    """The three exact positivity quantities: 3bd - c^2, 3ac - b^2, and
    2ac^3 + 2b^3d - b^2c^2 - 3abcd."""

    n: int
    k: int
    bd_term: int
    ac_term: int
    mixed_term: int

    @property
    def all_positive(self) -> bool:
        return self.bd_term > 0 and self.ac_term > 0 and self.mixed_term > 0

    def to_json_dict(self) -> dict:
        names = {"bd_term": "3bd-c2", "ac_term": "3ac-b2", "mixed_term": "2ac3+2b3d-b2c2-3abcd"}
        return {**super().to_json_dict(**names), "pass": self.all_positive}


def lemma31_check(n: int, k: int) -> Lemma31Report:
    quad = binom_quad(n, k)
    a, b, c, d = quad.a, quad.b, quad.c, quad.d
    return Lemma31Report(
        n,
        k,
        3 * b * d - c**2,
        3 * a * c - b**2,
        _mixed_term(a, b, c, d),
    )


@dataclass(frozen=True)
class Lemma32Report(JsonResult):
    """Positivity of A1, A2 and the discriminant combination A1 A2 - A3^2/36."""

    n: int
    k: int
    A1: Fraction
    A2: Fraction
    discriminant_combo: Fraction

    @property
    def all_positive(self) -> bool:
        return self.A1 > 0 and self.A2 > 0 and self.discriminant_combo > 0

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(discriminant_combo="A1A2-A3^2/36"), "pass": self.all_positive}


def lemma32_check(n: int, k: int) -> Lemma32Report:
    consts = cert_constants(n, k)
    combo = consts.A1 * consts.A2 - consts.A3**2 / 36
    return Lemma32Report(n, k, consts.A1, consts.A2, combo)


# Auxiliary integer polynomials whose positivity on k = 1..n-2 underpins
# the lemmas.  Endpoints: f1(1) = f2(1) = f2(n-2) = f3(1) = f3(n-2) =
# f4(1) = f4(n-2) = 3(n-3), while f1(n-2) = n-3.


def f1(n: int, k: int) -> int:
    return -2 * k**2 + 2 * (n - 2) * k + (n - 3)


def f2(n: int, k: int) -> int:
    return -(k**3) + (n - 5) * k**2 + (3 * n - 2) * k - n - 1


def f3(n: int, k: int) -> int:
    return k**3 - (2 * n + 2) * k**2 + (n**2 + 3 * n - 5) * k - n**2 + 2 * n - 3


def f4(n: int, k: int) -> int:
    return -(n + 5) * k**2 + (n**2 + 4 * n - 5) * k - n**2 + 1


@dataclass(frozen=True)
class FScanRow(JsonResult):
    k: int
    f1: int
    f2: int
    f3: int
    f4: int

    @property
    def all_positive(self) -> bool:
        return self.f1 > 0 and self.f2 > 0 and self.f3 > 0 and self.f4 > 0

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "pass": self.all_positive}


def f_scan(n: int) -> list[FScanRow]:
    """Evaluate f1..f4 at every integer k in [1, n-2]; all must be > 0."""
    if n < 4:
        raise ValueError(f"f_scan needs n >= 4, got {n}")
    return [FScanRow(k, f1(n, k), f2(n, k), f3(n, k), f4(n, k)) for k in range(1, n - 1)]


@lru_cache(maxsize=None)
def _f_scan_passes(n: int) -> bool:
    return all(row.all_positive for row in f_scan(n))


@dataclass(frozen=True)
class WindowCheck:
    """Every certificate check of one window (n, k); the window passes
    when all of them hold."""

    n: int
    k: int
    lemma31: bool
    lemma32: bool
    theta1: Fraction
    theta2: Fraction
    f_scan: bool

    @property
    def passed(self) -> bool:
        return (
            self.lemma31
            and self.lemma32
            and 0 < self.theta1 < 1
            and self.theta2 > 0
            and self.f_scan
        )


def window_check(n: int, k: int) -> WindowCheck:
    """Lemma 3.1, lemma 3.2, 0 < theta1 < 1, theta2 > 0 and the f-scan
    of n, for one window."""
    consts = cert_constants(n, k)
    return WindowCheck(
        n,
        k,
        lemma31_check(n, k).all_positive,
        lemma32_check(n, k).all_positive,
        consts.theta1,
        consts.theta2,
        _f_scan_passes(n),
    )


def is_special_window(n: int, k: int) -> bool:
    """The windows k = 0, k = n-1 and (n, k) = (3, 1), which lie outside
    the certificate's range and take theta = 1/2 instead."""
    return k == 0 or k == n - 1 or (n, k) == (3, 1)


def theta_for(n: int, k: int) -> Fraction:
    """Certified admissible theta for the quantitative gap: 1/2 at k = 0,
    k = n-1, and (n, k) = (3, 1); theta1(n, k) otherwise, taken at the
    scale-free quadruple, so no binomial is built at any n.

    Admissible, not claimed optimal.
    """
    if n < 3 or not 0 <= k <= n - 1:
        raise ValueError(f"theta_for needs n >= 3 and 0 <= k <= n-1, got ({n}, {k})")
    if is_special_window(n, k):
        return Fraction(1, 2)
    return _theta1(*_scale_free_quad(n, k))
