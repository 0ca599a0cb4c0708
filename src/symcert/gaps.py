"""Exact gap evaluation for the classical Newton-Maclaurin inequalities,
their two-term generalization, the quantitative form, and the general
linear-combination conjecture.

Every gap is an exact rational lhs - rhs over one window of weights, on
integer sigmas over one denominator: the two-term gaps are the general
combination with weights (alpha, 1).  A negative gap under satisfied
preconditions is a *finding* (a witness the search layer can consume);
violated preconditions raise :class:`PreconditionError` instead.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from enum import Enum
from fractions import Fraction
from math import comb, lcm
from operator import mul

from .core import JsonResult, RationalLike, _in_cone, _sigma_numerators, as_point, as_rational
from .core import over_common_denominator


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


class GapReport(namedtuple("GapReport", "lhs rhs gap relation equality_case"), JsonResult):
    """lhs - rhs = gap, its sign as a Relation, and the equality case."""

    __slots__ = ()

    @classmethod
    def over(
        cls, lhs: int, rhs: int, den: int, equality_case: EqualityCase = EqualityCase.NOT_APPLICABLE
    ) -> "GapReport":
        """The report of lhs/den - rhs/den, for integers over a positive den."""
        gap = lhs - rhs
        fractions = (Fraction(lhs, den), Fraction(rhs, den), Fraction(gap, den))
        return cls(*fractions, _relation(gap), equality_case)


def _relation(gap: Fraction | int) -> Relation:
    if gap > 0:
        return Relation.STRICTLY_POSITIVE
    if gap == 0:
        return Relation.ZERO
    return Relation.NEGATIVE


def _window(u: Callable[[int], RationalLike], weights: Sequence, lo: int, hi: int) -> list:
    """The terms sum_r w_r*u(i+r) for i = lo..hi-1, where u gives the
    means, the sigmas or the moments by index; every gap is s^2 - p*q over
    three neighbouring terms (p, s, q), up to a factor on s^2.  sum() adds
    the products in slot order, so floats round the same for every caller."""
    vals = [u(i) for i in range(lo, hi + len(weights) - 1)]
    return [sum(map(mul, weights, vals[i:])) for i in range(hi - lo)]


_IntWindow = tuple[list[int], int, int, int, list[int]]  # (T, D, C, e, S): _cleared_window
# linear_combo_gap's window (lo, hi): the terms at 0, 1, 2 of its weights
_COMBO_SPAN = (0, 3)


def _cleared_window(
    scale: int, head: list[int], xs: list[int], last: Fraction | int, lo: int, hi: int, means: bool
) -> _IntWindow:
    """(T, D, C, e, S): T the terms of _window for i = lo..hi-1 of the
    sigmas, or with means of the means, on integers.  head holds the m - 1
    weights before the last and xs the point, each times one denominator
    D = scale, and last is the last weight; D may be any positive common
    denominator, since each term scales by a positive power of it.

    W is the last weight's denominator; of m weights, weight r becomes
    W*a_r*D^(m-1-r), and S_j = sigma_j*D^j.  The sigmas feed S_j with
    L = 1; the means feed S_j*(L // C(n, j)), with L the lcm of the
    C(n, j) the window reads.  The term at i is T[i - lo] / (C*D^(i+m-1))
    with C = W*L, so a window (p, s, q) at lo..lo+2 has s^2 and p*q both
    over (C*D^e)^2 with e = lo + m (_gap_den; no sign test builds it).
    """
    n, m = len(xs), len(head) + 1
    sig = _sigma_numerators(xs)
    top = last.denominator
    w = [top * a * scale ** (m - 2 - r) for r, a in enumerate(head)] + [last.numerator]
    common, u = 1, sig
    if means:
        picks = range(max(lo, 0), min(hi + m - 2, n) + 1)
        common = lcm(*(comb(n, j) for j in picks))
        u = [s * (common // comb(n, j)) if j in picks else 0 for j, s in enumerate(sig)]
    terms = _window(lambda j: u[j] if 0 <= j <= n else 0, w, lo, hi)
    return terms, scale, top * common, lo + m, sig


def _gap_den(window: _IntWindow) -> int:
    """(C*D^e)^2, the denominator of s^2 and p*q over a window (p, s, q)."""
    _, scale, common, e, _ = window
    return (common * scale**e) ** 2


def _gap_sides(terms: Sequence[int], t_num: int = 0, t_den: int = 1) -> tuple[int, int]:
    """The two sides t_den*(1 - theta)*s^2 and t_den*p*q of a gap over the
    window terms (p, s, q), with theta = t_num/t_den: every gap here is
    their difference over a positive denominator.  theta = 0 gives s^2
    and p*q."""
    p, s, q = terms
    return (t_den - t_num) * s * s, t_den * p * q


def _gen_nm_window(scale: int, ints: list[int], k: int) -> _IntWindow:
    """gen_nm_gap's window about k: the means at k-1..k+2 under (alpha, 1),
    on ints = [alpha, *x] times D = scale (over_common_denominator)."""
    return _cleared_window(scale, ints[:1], ints[1:], 1, k - 1, k + 2, True)


def _quantitative_window(scale: int, ints: list[int], k: int) -> _IntWindow:
    """quantitative_gap's window about k: the sigmas at k-1..k+2 under
    (alpha, 1), on ints as in _gen_nm_window."""
    return _cleared_window(scale, ints[:1], ints[1:], 1, k - 1, k + 2, False)


def _combo_window(point: tuple[Fraction, ...], weights: Sequence[Fraction]) -> _IntWindow:
    """linear_combo_gap's window: the means at 0..m+1 under the m weights;
    the point and all weights but the last go over their lcm denominator."""
    *head, last = weights
    scale, ints = over_common_denominator((*head, *point))
    return _cleared_window(scale, ints[: len(head)], ints[len(head) :], last, *_COMBO_SPAN, True)


def _two_term_gap(point: tuple[Fraction, ...], alpha: Fraction, j: int) -> GapReport:
    """Gap s^2 - p*q over the window (p, s, q) of the means at j, with its
    equality label.

    The ratio condition is checked in cross-multiplied form so zero
    denominators never need dividing: s = -alpha*p and q = -alpha*s.
    """
    window = _gen_nm_window(*over_common_denominator((alpha, *point)), j)
    (p, s, q), scale = window[0], window[1]
    lhs, rhs = _gap_sides((p, s, q))
    if lhs != rhs:
        case = EqualityCase.STRICT
    elif all(v == point[0] for v in point):
        case = EqualityCase.ALL_EQUAL
    elif s == -alpha * scale * p and q == -alpha * scale * s:
        case = EqualityCase.RATIO_MINUS_ALPHA
    else:
        case = EqualityCase.NOT_APPLICABLE
    return GapReport.over(lhs, rhs, _gap_den(window), case)


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
    1 <= k <= n-2.  The gap is zero at all-equal points and in the ratio
    -alpha case, which are labelled, but not only there: at (1, 0, 0, 0)
    with alpha = 1 and k = 2 it is zero and labelled NotApplicable.
    """
    point = as_point(x)
    n = len(point)
    a = as_rational(alpha)
    if n < 3:
        raise PreconditionError(f"gen_nm_gap needs n >= 3, got n={n}")
    if not 1 <= k <= n - 2:
        raise PreconditionError(f"gen_nm_gap needs 1 <= k <= n-2, got k={k}, n={n}")
    return _two_term_gap(point, a, k)


class ChainResult(
    namedtuple("ChainResult", "holds chain_top precondition_failed_at first_failure"), JsonResult
):
    """Outcome of the generalized chain check.

    chain_top is the largest m such that alpha*E_j + E_{j+1} >= 0 for all
    j <= m; the cross-power comparisons are verified for every index up
    to chain_top.  first_failure would name the first broken comparison
    (never expected when the preconditions hold); precondition_failed_at
    is the first m whose term is negative, if any.
    """

    __slots__ = ()


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
    # the term at m is T_m / (C D^(m+1)), so the powers of D cancel in
    # term_{m-1}^(m+1) >= term_m^m, which reads T_{m-1}^(m+1) >= C T_m^m
    scale, ints = over_common_denominator((a, *point))
    terms, _, common, _, _ = _cleared_window(scale, ints[:1], ints[1:], 1, 0, len(point), True)
    chain_top = -1
    failed_at: int | None = None
    for m, value in enumerate(terms):
        if value < 0:
            failed_at = m
            break
        chain_top = m
    first_failure: int | None = None
    for m in range(1, chain_top + 1):
        if terms[m - 1] ** (m + 1) < common * terms[m] ** m:
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
    # a weight past slot n+1 reads only means past n, which are zero
    weights = weights[: len(point) + 1]
    window = _combo_window(point, weights)
    return GapReport.over(*_gap_sides(window[0]), _gap_den(window))


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
    window = _quantitative_window(*over_common_denominator((a, *point)), k)
    # (1 - theta) s^2 - p q over t_den times the window's, with theta = t_num / t_den
    t_num, t_den = th.as_integer_ratio()
    return GapReport.over(*_gap_sides(window[0], t_num, t_den), t_den * _gap_den(window))


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
    # the sigma-form window about k is quantitative_gap's about k - 1
    window = _quantitative_window(*over_common_denominator((a, *point)), k - 1)
    if not _in_cone(window[4], k):
        raise PreconditionError("point lies outside the level-k positivity cone")
    return GapReport.over(*_gap_sides(window[0]), _gap_den(window))


class EndpointWitness(namedtuple("EndpointWitness", "x alpha k report"), JsonResult):
    """Constant point and alpha with a negative two-term gap (a GapReport)
    at k = 0 or k = n-1, where the two-term inequality genuinely fails."""

    __slots__ = ()


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
    window = _gen_nm_window(*over_common_denominator((a, *point)), k)
    report = GapReport.over(*_gap_sides(window[0]), _gap_den(window))
    return EndpointWitness(point, a, k, report)
