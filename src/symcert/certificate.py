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
and is divided by M*D^4 once.  Every constant and lemma quantity is one
homogeneous integer form of (a, b, c, d) (_forms), so window_check reads
the signs and theta1 (of degree 0) at a scale-free quadruple of small
polynomials in (n, k), and theta_for takes constant time in n.  At the
binomials, one cached record per window, built from one binom_quad and
one _forms call, feeds the constants, both lemma checks and the residual.

The f1..f4 scans depend on n alone: one cached store per n keeps their
values over k = 1..n-2 as four compact integer columns, f_scan builds
fresh rows from it on every call, and the window checks read the columns
and build no row.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache, partial

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


class BinomQuad(namedtuple("BinomQuad", "n k a b c d")):
    """Four consecutive binomials a = C(n,k-1) .. d = C(n,k+2)."""

    __slots__ = ()


def binom_quad(n: int, k: int) -> BinomQuad:
    """One binomial, then three exact integer steps C(n, j+1) = C(n, j)(n-j)/(j+1)."""
    _check_general_range(n, k)
    a = binomial(n, k - 1)
    b = a * (n - k + 1) // k
    c = b * (n - k) // (k + 1)
    return BinomQuad(n, k, a, b, c, c * (n - k - 1) // (k + 2))


class CertConstants(namedtuple("CertConstants", "n k quad theta1 theta2 t A1 A2 A3"), JsonResult):
    """The certificate constants of one window at its binomial quadruple."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        data = super().to_json_dict(quad="binomials")
        data["binomials"] = {"a": self.quad.a, "b": self.quad.b, "c": self.quad.c, "d": self.quad.d}
        return data


# theta1 = 3*mixed/den, written once over plain scalars (a, b, c, d):
# _forms builds every constant on these, and theta_for takes theta1 at
# the scale-free quadruple.


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


class _Forms(namedtuple("_Forms", "bd ac mixed den tn td theta2 A1 A2 A3 combo")):
    """The integer forms of a quadruple: the Lemma 3.1 terms (bd, ac,
    mixed), den, t = tn/td, theta2, A1, A2 and A3 as numerators over den,
    and combo = 36 den^2 (A1 A2 - A3^2/36).  Each is homogeneous in
    (a, b, c, d), of degree 2, 2, 4, 4, 3, 3, 6, 6, 6, 6 and 12, so at the
    binomials it is a positive power of C(n, k-1)/(k(k+1)(k+2)) times its
    value at the scale-free quadruple, and theta1 (degree 0) is equal."""

    __slots__ = ()

    @property
    def theta1(self) -> Fraction:
        return Fraction(3 * self.mixed, self.den)


def _forms(a, b, c, d) -> _Forms:
    """theta2 = c^2 (3ac - b^2)^2/den, t = b (3bd - c^2)/(c (3ac - b^2)),
    A1 = b^2 (1 - theta1) - 2 theta2, A2 = c^2 (1 - theta1) - 2 t^2 theta2
    and A3 = 18 t theta2 - 9ad, each written over den."""
    bd, ac, mixed = 3 * b * d - c**2, 3 * a * c - b**2, _mixed_term(a, b, c, d)
    den = _theta_den(a, b, c, d)
    rest = den - 3 * mixed  # den * (1 - theta1)
    theta2 = c**2 * ac**2
    A1 = b**2 * rest - 2 * theta2
    A2 = c**2 * rest - 2 * b**2 * bd**2
    A3 = 18 * b * c * bd * ac - 9 * a * d * den
    return _Forms(bd, ac, mixed, den, b * bd, c * ac, theta2, A1, A2, A3, 36 * A1 * A2 - A3**2)


class Lemma31Report(namedtuple("Lemma31Report", "n k bd_term ac_term mixed_term"), JsonResult):
    """The three exact positivity quantities: 3bd - c^2, 3ac - b^2, and
    2ac^3 + 2b^3d - b^2c^2 - 3abcd."""

    __slots__ = ()

    @property
    def all_positive(self) -> bool:
        return self.bd_term > 0 and self.ac_term > 0 and self.mixed_term > 0

    def to_json_dict(self) -> dict:
        names = {"bd_term": "3bd-c2", "ac_term": "3ac-b2", "mixed_term": "2ac3+2b3d-b2c2-3abcd"}
        return {**super().to_json_dict(**names), "pass": self.all_positive}


class Lemma32Report(namedtuple("Lemma32Report", "n k A1 A2 discriminant_combo"), JsonResult):
    """Positivity of A1, A2 and the discriminant combination A1 A2 - A3^2/36."""

    __slots__ = ()

    @property
    def all_positive(self) -> bool:
        return self.A1 > 0 and self.A2 > 0 and self.discriminant_combo > 0

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(discriminant_combo="A1A2-A3^2/36"), "pass": self.all_positive}


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


class _ClearedConstants(namedtuple("_ClearedConstants", "scale theta1 theta2 tn tq A1 A2 A3")):
    """The decomposition's constants times M = scale, the lcm of the
    denominators of theta1, theta2/tq^2, A1, A2 and A3, with t = tn/tq:
    all integers.  theta2 is M*theta2/tq^2, the factor of
    _w(z, alpha*tq, tn).  A named tuple, as each window record keeps one."""

    __slots__ = ()


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


class _Window:
    """The record of one window (n, k), built from one binom_quad and one
    _forms call: the constants, then on first read the Lemma 3.1 and 3.2
    reports and the cleared constants of the residual.  Of the forms it
    keeps only the five the lemma reports read, until it builds them."""

    __slots__ = ("constants", "_lemma_forms", "_lemmas", "_cleared")

    def __init__(self, constants: CertConstants, forms: _Forms) -> None:
        self.constants = constants
        self._lemma_forms = forms.bd, forms.ac, forms.mixed, forms.combo, forms.den
        self._lemmas = None
        self._cleared = None

    @property
    def lemmas(self) -> tuple[Lemma31Report, Lemma32Report]:
        if self._lemmas is None:
            c = self.constants
            bd, ac, mixed, combo, den = self._lemma_forms
            self._lemmas = (
                Lemma31Report(c.n, c.k, bd, ac, mixed),
                Lemma32Report(c.n, c.k, c.A1, c.A2, Fraction(combo, 36 * den**2)),
            )
            self._lemma_forms = None
        return self._lemmas

    @property
    def cleared(self) -> _ClearedConstants:
        if self._cleared is None:
            self._cleared = _cleared(self.constants)
        return self._cleared


@lru_cache(maxsize=None)
def _window(n: int, k: int) -> _Window:
    quad = binom_quad(n, k)
    f = _forms(quad.a, quad.b, quad.c, quad.d)
    den = f.den
    constants = CertConstants(
        n, k, quad, f.theta1, Fraction(f.theta2, den), Fraction(f.tn, f.td),
        Fraction(f.A1, den), Fraction(f.A2, den), Fraction(f.A3, den),
    )
    return _Window(constants, f)


def cert_constants(n: int, k: int) -> CertConstants:
    """The constants (theta1, theta2, t) that solve the three
    coefficient-matching equations and the leftover quadratic-form
    coefficients A1, A2, A3 (see _forms), at the binomial quadruple.

    The denominators are strictly positive throughout the admissible
    range (see lemma31_check), so everything here is a plain rational.
    """
    return _window(n, k).constants


def lemma31_check(n: int, k: int) -> Lemma31Report:
    return _window(n, k).lemmas[0]


def lemma32_check(n: int, k: int) -> Lemma32Report:
    return _window(n, k).lemmas[1]


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
    window = _window(n, k)
    cleared = window.cleared
    den, point = over_common_denominator((*as_triple(z), as_rational(alpha)))
    return Fraction(_residual(*point, window.constants.quad, cleared), cleared.scale * den**4)


def decomposition_coefficient_match(n: int, k: int) -> bool:
    """Expand the decomposition residual symbolically in (z1, z2, z3, alpha)
    and verify that every monomial coefficient vanishes.

    The expansion runs the very scaled residual decomposition_residual
    evaluates, over polys.MPoly variables, so it proves the identity for
    that code.  Conclusive where random-point sampling could in principle
    miss a measure-zero discrepancy.
    """
    window = _window(n, k)
    return not _residual(*MPoly.variables(4), window.constants.quad, window.cleared)


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


class FScanRow(namedtuple("FScanRow", "k f1 f2 f3 f4"), JsonResult):
    """f1..f4 at one k in [1, n-2], as an immutable named tuple."""

    __slots__ = ()

    @property
    def all_positive(self) -> bool:
        return self.f1 > 0 and self.f2 > 0 and self.f3 > 0 and self.f4 > 0

    def to_json_dict(self) -> dict:
        # the fields are ints, their own JSON form: _asdict skips to_json per value
        return {**self._asdict(), "pass": self.all_positive}


def _column(values: list[int]) -> Sequence[int]:
    """values as a compact array('q'), or as a tuple of exact ints once
    one of them outgrows 64 bits (f4 peaks near n^3/4, past 2^63 from
    about n = 3.3 million)."""
    # imported here: the theta and certificate commands load this module but scan nothing
    from array import array

    try:
        return array("q", values)
    except OverflowError:
        return tuple(values)


@lru_cache(maxsize=None)
def _f_columns(n: int) -> tuple[Sequence[int], ...]:
    """f1..f4 over k = 1..n-2, one column each, evaluated once per n."""
    if n < 4:
        raise ValueError(f"f_scan needs n >= 4, got {n}")
    return tuple(_column([f(n, k) for k in range(1, n - 1)]) for f in (f1, f2, f3, f4))


# tuple.__new__ skips the named tuple's Python-level __new__ per row
_new_row = partial(tuple.__new__, FScanRow)


def f_scan(n: int) -> list[FScanRow]:
    """Evaluate f1..f4 at every integer k in [1, n-2]; all must be > 0.

    The values come from the cached columns of n; the rows are new on
    every call, and no row is cached."""
    return list(map(_new_row, zip(range(1, n - 1), *_f_columns(n))))


@lru_cache(maxsize=None)
def _f_scan_passes(n: int) -> bool:
    return all(min(column) > 0 for column in _f_columns(n))


class WindowCheck(namedtuple("WindowCheck", "n k lemma31 lemma32 theta1 f_scan"), JsonResult):
    """Every certificate check of one window (n, k); the window passes
    when all of them hold."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.lemma31 and self.lemma32 and 0 < self.theta1 < 1 and self.f_scan

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "pass": self.passed}


def window_check(n: int, k: int) -> WindowCheck:
    """Lemma 3.1, lemma 3.2, 0 < theta1 < 1 and the f-scan of n, for one
    window.  The signs and theta1 are read off the forms at the
    scale-free quadruple, so no binomial is built.  Under Lemma 3.1,
    theta1 > 0 holds exactly when den > 0, which is when theta2 > 0."""
    _check_general_range(n, k)
    f = _forms(*_scale_free_quad(n, k))
    lemma31 = f.bd > 0 and f.ac > 0 and f.mixed > 0
    lemma32 = f.A1 * f.den > 0 and f.A2 * f.den > 0 and f.combo > 0
    return WindowCheck(n, k, lemma31, lemma32, f.theta1, _f_scan_passes(n))


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


def theta_row(n: int, k: int) -> dict:
    """The theta command's payload and one row of the report: theta_for
    and whether it is the special case or the certificate's theta1."""
    source = "special-case" if is_special_window(n, k) else "certificate"
    return {"n": n, "k": k, "theta": theta_for(n, k), "source": source}
