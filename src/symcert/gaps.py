"""Exact gap evaluation for the classical Newton-Maclaurin inequalities,
their two-term generalization, the quantitative form, and the general
linear-combination conjecture.

Every gap is an exact rational lhs - rhs.  A negative gap under satisfied
preconditions is a *finding* (a witness the search layer can consume);
violated preconditions raise :class:`PreconditionError` instead.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .core import JsonResult, RationalLike, as_point, as_rational, garding_membership, sigma_all


class Relation(Enum):
    STRICTLY_POSITIVE = "StrictlyPositive"
    ZERO = "Zero"
    NEGATIVE = "Negative"


class EqualityCase(Enum):
    NOT_APPLICABLE = "NotApplicable"
    ALL_EQUAL = "AllEqual"
    RATIO_MINUS_ALPHA = "RatioMinusAlpha"
    STRICT = "Strict"


class PreconditionError(ValueError):
    """A stated hypothesis of an inequality was violated.

    Distinct from a negative gap, which is a mathematical finding rather
    than an input error.
    """


@dataclass(frozen=True)
class GapReport(JsonResult):
    lhs: Fraction
    rhs: Fraction
    gap: Fraction
    relation: Relation
    equality_case: EqualityCase

    @classmethod
    def from_sides(
        cls,
        lhs: Fraction,
        rhs: Fraction,
        equality_case: EqualityCase = EqualityCase.NOT_APPLICABLE,
    ) -> "GapReport":
        gap = lhs - rhs
        if gap > 0:
            relation = Relation.STRICTLY_POSITIVE
        elif gap == 0:
            relation = Relation.ZERO
        else:
            relation = Relation.NEGATIVE
        return cls(lhs, rhs, gap, relation, equality_case)


def _window(
    u: Callable[[int], Fraction], alpha: Fraction, j: int
) -> tuple[Fraction, Fraction, Fraction]:
    """The window (p, s, q) of two-term terms alpha*u(i) + u(i+1) at
    i = j-1, j, j+1, where u gives the means, the sigmas or the moments
    by index.  Every two-term gap is s^2 - p*q, up to a factor on s^2."""
    return alpha * u(j - 1) + u(j), alpha * u(j) + u(j + 1), alpha * u(j + 1) + u(j + 2)


def _two_term_gap(point: tuple[Fraction, ...], alpha: Fraction, j: int) -> GapReport:
    """Gap s^2 - p*q over the window (p, s, q) of the means at j, with its
    equality label.

    The ratio condition is checked in cross-multiplied form so zero
    denominators never need dividing: s = -alpha*p and q = -alpha*s.
    """
    p, s, q = _window(sigma_all(point).e_at, alpha, j)
    lhs, rhs = s**2, p * q
    if lhs != rhs:
        case = EqualityCase.STRICT
    elif all(v == point[0] for v in point):
        case = EqualityCase.ALL_EQUAL
    elif s == -alpha * p and q == -alpha * s:
        case = EqualityCase.RATIO_MINUS_ALPHA
    else:
        case = EqualityCase.NOT_APPLICABLE
    return GapReport.from_sides(lhs, rhs, case)


def newton_gap(x: Iterable[RationalLike], k: int) -> GapReport:
    """Gap E_k^2 - E_{k-1} E_{k+1}; nonnegative for every real point,
    zero exactly when all entries coincide (or two consecutive means
    vanish, the alpha = 0 ratio case).
    """
    point = as_point(x)
    n = len(point)
    if not 1 <= k <= n - 1:
        raise PreconditionError(f"newton_gap needs 1 <= k <= n-1, got k={k}, n={n}")
    return _two_term_gap(point, Fraction(0), k - 1)


def maclaurin_chain_check(x: Iterable[RationalLike]) -> bool:
    """E_1 >= E_2^(1/2) >= ... >= E_n^(1/n) for nonnegative points.

    Adjacent links are compared through the integer cross powers
    E_k^(k+1) >= E_{k+1}^k, which keeps the whole check exact.
    """
    point = as_point(x)
    if any(v < 0 for v in point):
        raise PreconditionError("the Maclaurin chain needs nonnegative entries")
    # at alpha = 0 every term is E_{m+1} >= 0, so the generalized chain
    # compares exactly E_k^(k+1) >= E_{k+1}^k for k = 1..n-1
    return gen_maclaurin_chain(point, 0).holds


def gen_nm_gap(x: Iterable[RationalLike], alpha: RationalLike, k: int) -> GapReport:
    """Two-term gap [a E_k + E_{k+1}]^2 - [a E_{k-1} + E_k][a E_{k+1} + E_{k+2}].

    Nonnegative for every real point and every real alpha when
    1 <= k <= n-2; zero only in the all-equal and ratio -alpha cases.
    """
    point = as_point(x)
    n = len(point)
    a = as_rational(alpha)
    if n < 3:
        raise PreconditionError(f"gen_nm_gap needs n >= 3, got n={n}")
    if not 1 <= k <= n - 2:
        raise PreconditionError(f"gen_nm_gap needs 1 <= k <= n-2, got k={k}, n={n}")
    return _two_term_gap(point, a, k)


@dataclass(frozen=True)
class ChainResult(JsonResult):
    """Outcome of the generalized chain check.

    chain_top is the largest m such that alpha*E_j + E_{j+1} >= 0 for all
    j <= m; the cross-power comparisons are verified for every index up
    to chain_top.  first_failure would name the first broken comparison
    (never expected when the preconditions hold).
    """

    holds: bool
    chain_top: int
    precondition_failed_at: int | None
    first_failure: int | None


def gen_maclaurin_chain(x: Iterable[RationalLike], alpha: RationalLike) -> ChainResult:
    """Chain [a + E_1] >= [a E_1 + E_2]^(1/2) >= ... for alpha >= 0.

    Each adjacent comparison [a E_{m-1} + E_m]^(1/m) >= [a E_m + E_{m+1}]^(1/(m+1))
    is verified via the integer cross powers lhs^(m+1) >= rhs^m, valid
    because the precondition makes both bases nonnegative.
    """
    point = as_point(x)
    a = as_rational(alpha)
    if a < 0:
        raise PreconditionError("the generalized chain requires alpha >= 0")
    n = len(point)
    e = sigma_all(point).e_at
    terms = [a * e(m) + e(m + 1) for m in range(n)]
    chain_top = -1
    failed_at: int | None = None
    for m, value in enumerate(terms):
        if value < 0:
            failed_at = m
            break
        chain_top = m
    first_failure: int | None = None
    for m in range(1, chain_top + 1):
        if terms[m - 1] ** (m + 1) < terms[m] ** m:
            first_failure = m
            break
    return ChainResult(first_failure is None, chain_top, failed_at, first_failure)


def linear_combo_gap(
    x: Iterable[RationalLike], coeffs: Sequence[RationalLike]
) -> GapReport:
    """Gap of the general linear combination sum_k a_k E_k (k = 1..m).

    No sign is claimed: the analogous inequality fails in general, and a
    negative gap here is exactly the witness the search layer hunts for.
    Means beyond the point length contribute zero.
    """
    point = as_point(x)
    weights = [as_rational(c) for c in coeffs]
    if not weights:
        raise PreconditionError("need at least one coefficient")
    return GapReport.from_sides(*_combo_sides(sigma_all(point).e_list(), weights))


def _combo_sides(
    means: Sequence[Fraction], weights: Sequence[Fraction]
) -> tuple[Fraction, Fraction]:
    """(mid^2, low*high) for the combination sum_k a_k E_k (k = 1..m) over
    the means E_0..E_n, zero past the ends.  Zero weights add nothing, so
    they are skipped."""
    top = len(means) - 1
    mid = low = high = Fraction(0)
    for k, c in enumerate(weights, start=1):
        if c:
            if k <= top:
                mid += c * means[k]
            if k - 1 <= top:
                low += c * means[k - 1]
            if k + 1 <= top:
                high += c * means[k + 1]
    return mid * mid, low * high


def quantitative_gap(
    x: Iterable[RationalLike],
    alpha: RationalLike,
    k: int,
    theta: RationalLike,
) -> GapReport:
    """Gap (1-theta)[a s_k + s_{k+1}]^2 - [a s_{k-1} + s_k][a s_{k+1} + s_{k+2}].

    With theta = theta_for(n, k) from the certificate module this is
    nonnegative for every real point and alpha; out-of-range sigma
    indices are zero, which covers k = 0 and k = n-1.
    """
    point = as_point(x)
    a = as_rational(alpha)
    th = as_rational(theta)
    n = len(point)
    if not 0 <= k <= n - 1:
        raise PreconditionError(f"quantitative_gap needs 0 <= k <= n-1, got k={k}, n={n}")
    if not 0 < th < 1:
        raise PreconditionError(f"theta must lie in (0, 1), got {th}")
    p, s, q = _window(sigma_all(point).sigma_at, a, k)
    return GapReport.from_sides((1 - th) * s**2, p * q)


def liu_ren_gap(x: Iterable[RationalLike], alpha: RationalLike, k: int) -> GapReport:
    """Sigma-form gap [s_k + a s_{k-1}]^2 - [s_{k-1} + a s_{k-2}][s_{k+1} + a s_k].

    Requires alpha > 0 and x inside the positivity cone through level k;
    under those hypotheses the gap is nonnegative.
    """
    point = as_point(x)
    a = as_rational(alpha)
    n = len(point)
    if not 2 <= k <= n - 1:
        raise PreconditionError(f"liu_ren_gap needs 2 <= k <= n-1, got k={k}, n={n}")
    if a <= 0:
        raise PreconditionError(f"liu_ren_gap requires alpha > 0, got {a}")
    if not garding_membership(point, k):
        raise PreconditionError("point lies outside the level-k positivity cone")
    p, s, q = _window(sigma_all(point).sigma_at, a, k - 1)
    return GapReport.from_sides(s**2, p * q)


@dataclass(frozen=True)
class EndpointWitness(JsonResult):
    """Constant point and alpha with a negative two-term gap at k = 0 or
    k = n-1, where the two-term inequality genuinely fails."""

    x: tuple[Fraction, ...]
    alpha: Fraction
    k: int
    report: GapReport


def remark_violation(n: int, k: int) -> EndpointWitness:
    """Produce an explicit endpoint violation of the two-term form.

    For a constant point (c, ..., c) the k = 0 gap collapses to
    alpha*(alpha + c) and the k = n-1 gap to c^(2n-1)*(alpha + c), so
    alpha = -1 with c = 2 (resp. c = 1/2) is negative for every n.
    """
    if n < 2:
        raise PreconditionError(f"remark_violation needs n >= 2, got {n}")
    if k == 0:
        c, a = Fraction(2), Fraction(-1)
    elif k == n - 1:
        c, a = Fraction(1, 2), Fraction(-1)
    else:
        raise PreconditionError(f"remark applies only to k = 0 or k = n-1, got k={k}")
    point = (c,) * n
    p, s, q = _window(sigma_all(point).e_at, a, k)
    return EndpointWitness(point, a, k, GapReport.from_sides(s**2, p * q))
