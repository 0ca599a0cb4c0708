"""Reduction tests: associated cubics, exact discriminants, the derivative
cascade with Sturm certification, branch selection, the three-square
identity, and root quality."""

import math
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from conftest import horner, points, rationals, triples
from symcert import polys, reduction
from symcert.core import sigma_all
from symcert.gaps import gen_nm_gap
from symcert.reduction import (
    Branch,
    Cubic,
    associated_cubic,
    cubic_discriminant,
    degenerate_direct_gap,
    derivative_cascade,
    gap_from_moments,
    lemma21_identity_residual,
    real_cubic_roots,
    reduce_to_three,
)

F = Fraction


def window_for(point, k):
    return 1 <= k <= len(point) - 2


# Fraction-arithmetic reference for the root polish of real_cubic_roots:
# Newton steps and the acceptance test by rational Horner evaluation.
# The integer kernel must return the same roots and take the bisection
# fallback on exactly the same cubics.

_DEN_BOUND = 10**80


def reference_newton(poly, r):
    slope = horner(polys.derivative(poly), r)
    if slope == 0:
        return None
    return (r - horner(poly, r) / slope).limit_denominator(_DEN_BOUND)


def reference_trig_roots(poly, P, Q, shift):
    try:
        p_f = float(P)
        q_f = float(Q)
        radius = 2.0 * math.sqrt(-p_f / 3.0)
        if radius == 0.0 or not math.isfinite(radius):
            return None
        arg = max(-1.0, min(1.0, 3.0 * q_f / (p_f * radius)))
        angle = math.acos(arg) / 3.0
        seeds = [radius * math.cos(angle - 2.0 * math.pi * j / 3.0) for j in range(3)]
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    roots = []
    for seed in seeds:
        r = reference_newton(poly, F(seed).limit_denominator(10**17) - shift)
        if r is None:
            return None
        roots.append(r)
    return roots


def reference_acceptable(poly, roots):
    if len(set(roots)) != 3:
        return False
    tol = max(abs(c) for c in poly) / 10**20
    return all(abs(horner(poly, r)) <= tol * max(1, abs(r)) ** 3 for r in roots)


def reference_bisection_roots(poly):
    chain = polys.sturm_chain(poly)
    bound = F(1) + max(abs(c) for c in poly)
    while polys.sign_at(chain[0], bound) == 0 or polys.sign_at(chain[0], -bound) == 0:
        bound += 1
    stack = [(-bound, polys.sign_changes_at(chain, -bound), bound, polys.sign_changes_at(chain, bound))]
    roots = []
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            while hi - lo > F(1, 10**45):
                mid = (lo + hi) / 2
                if polys.sign_at(chain[0], mid) == 0:
                    roots.append(mid)
                    break
                v_mid = polys.sign_changes_at(chain, mid)
                if v_lo - v_mid == 1:
                    hi = mid
                else:
                    lo, v_lo = mid, v_mid
            else:
                r = ((lo + hi) / 2).limit_denominator(_DEN_BOUND)
                polished = reference_newton(poly, r)
                roots.append(r if polished is None else polished)
        elif v_lo - v_hi > 1:
            mid = reduction._nonroot_point(chain[0], lo, hi)
            v_mid = polys.sign_changes_at(chain, mid)
            stack.append((lo, v_lo, mid, v_mid))
            stack.append((mid, v_mid, hi, v_hi))
    return roots


def reference_distinct_roots(b, c, d):
    """(roots ascending, whether the bisection fallback ran) for a monic
    cubic with three distinct real roots."""
    shift = b / 3
    P = c - b**2 / 3
    Q = 2 * b**3 / 27 - b * c / 3 + d
    poly = [d, c, b, F(1)]
    roots = reference_trig_roots(poly, P, Q, shift)
    bisected = roots is None or not reference_acceptable(poly, roots)
    if bisected:
        roots = reference_bisection_roots(poly)
    return tuple(sorted(roots)), bisected


search_roots = st.fractions(min_value=-50, max_value=50, max_denominator=10**6)


class TestAssociatedCubic:
    def test_all_ones_is_perfect_cube(self):
        cubic = associated_cubic((1, 1, 1, 1), 1)
        assert cubic.coefficients() == (F(1), F(-3), F(3), F(-1))
        assert cubic_discriminant(cubic) == 0

    def test_one_two_three_four(self):
        cubic = associated_cubic((1, 2, 3, 4), 1)
        assert cubic.coefficients() == (F(1), F(-15, 2), F(35, 2), F(-25, 2))

    def test_signed_point(self):
        cubic = associated_cubic((1, -1, 0), 1)
        assert cubic.coefficients() == (F(1), F(0), F(-1), F(0))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            associated_cubic((1, 2), 1)
        with pytest.raises(ValueError):
            associated_cubic((1, 2, 3, 4), 3)


class TestCubicDiscriminant:
    def test_perfect_cube_is_zero(self):
        assert cubic_discriminant([F(1), F(-3), F(3), F(-1)]) == 0

    def test_distinct_roots_positive(self):
        cubic = associated_cubic((1, 2, 3, 4), 1)
        assert cubic_discriminant(cubic) == F(125, 16)
        # cross-check: Sturm counts three distinct real roots
        assert polys.count_distinct_real_roots(cubic.as_poly()) == 3

    def test_complex_pair_negative(self):
        assert cubic_discriminant([F(1), F(0), F(1), F(0)]) == -4

    def test_degree_reduction(self):
        # vanished leading coefficient: discriminant of t^2 - 2t + 1
        assert cubic_discriminant([F(0), F(1), F(-2), F(1)]) == 0
        assert cubic_discriminant([F(0), F(0), F(5), F(1)]) == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            cubic_discriminant([F(0), F(0), F(0), F(0)])

    @given(points, st.integers(1, 6))
    def test_nonnegative_for_derived_cubics(self, point, k):
        if not window_for(point, k):
            return
        assert cubic_discriminant(associated_cubic(point, k)) >= 0

    @given(st.lists(rationals, min_size=4, max_size=4))
    def test_sign_agrees_with_sturm(self, coeffs):
        if coeffs[0] == 0:
            return
        disc = cubic_discriminant(coeffs)
        low_first = list(reversed(coeffs))
        assert (disc >= 0) == polys.is_real_rooted(low_first)


class TestDerivativeCascade:
    def test_cubic_point_single_level(self):
        result = derivative_cascade((1, 2, 3))
        assert len(result.levels) == 1
        assert len(result.cubics) == 1

    def test_quartic_point_two_cubics(self):
        result = derivative_cascade((1, 2, 3, 4))
        assert len(result.cubics) == 2
        # level 0 is the expanded point polynomial itself
        assert result.levels[0][0] == (F(1), F(-10), F(35), F(-50), F(24))
        for k in (1, 2):
            assert result.cubics[k - 1] == associated_cubic((1, 2, 3, 4), k).coefficients()

    @given(st.lists(rationals, min_size=3, max_size=6).map(tuple))
    def test_every_level_real_rooted_with_multiplicity(self, point):
        result = derivative_cascade(point)
        for poly in result.all_polynomials():
            low_first = polys.trim(list(reversed(poly)))
            degree = polys.degree(low_first)
            if degree < 1:
                continue
            assert polys.real_root_count_with_multiplicity(low_first) == degree

    def test_repeated_entries_keep_multiplicity(self):
        # a triple entry stays at least a double root after one derivative
        result = derivative_cascade((2, 2, 2, 5))
        for poly in result.levels[1]:
            low_first = list(reversed(poly))
            assert horner(low_first, F(2)) == 0
            assert horner(polys.derivative(low_first), F(2)) == 0

    def test_small_point_rejected(self):
        with pytest.raises(ValueError):
            derivative_cascade((1, 2))


class TestReduceToThree:
    def test_case_a_moments(self):
        triple = reduce_to_three((1, 2, 3, 4), 1)
        assert triple.branch is Branch.CASE_A
        assert triple.vieta_moments == (F(5, 2), F(35, 6), F(25, 2))

    def test_constant_point_triple_root(self):
        triple = reduce_to_three((F(7, 3),) * 5, 2)
        assert triple.branch is Branch.CASE_A
        assert triple.vieta_moments == (F(7, 3), F(49, 9), F(343, 27))
        roots = [F(r) for r in triple.roots]
        assert all(abs(r - F(7, 3)) < F(1, 10**30) for r in roots)

    def test_case_b(self):
        # E_1 = 0 but E_4 != 0 flips to the reversed polynomial
        triple = reduce_to_three((1, -1, 1, -1), 2)
        assert triple.branch is Branch.CASE_B
        e = sigma_all((1, -1, 1, -1)).e_at
        assert triple.vieta_moments == (e(3) / e(4), e(2) / e(4), e(1) / e(4))

    def test_degenerate_branch(self):
        triple = reduce_to_three((1, -1, 0, 0, 0), 2)
        assert triple.branch is Branch.DEGENERATE
        assert triple.vieta_moments is None
        assert triple.degenerate_means == (F(-1, 10), F(0))

    @given(rationals)
    def test_degenerate_direct_gap_matches_two_term(self, alpha):
        point = (1, -1, 0, 0, 0)
        means = reduce_to_three(point, 2).degenerate_means
        direct = degenerate_direct_gap(means[0], means[1], alpha)
        assert direct == gen_nm_gap(point, alpha, 2).gap
        assert direct >= 0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            reduce_to_three((1, 2, 3), 2)

    @given(points, rationals, st.integers(1, 6))
    def test_case_a_round_trip(self, point, alpha, k):
        if not window_for(point, k):
            return
        triple = reduce_to_three(point, k)
        if triple.branch is not Branch.CASE_A:
            return
        lead = sigma_all(point).e_at(k - 1)
        reduced = gap_from_moments(*triple.vieta_moments, alpha)
        assert reduced * lead**2 == gen_nm_gap(point, alpha, k).gap


class TestLemma21Identity:
    def test_plain_values(self):
        gap, residual = lemma21_identity_residual((1, 2, 3), 0)
        assert gap == 26
        assert residual == 0

    @given(rationals)
    def test_equal_entries_gap_zero(self, c):
        gap, residual = lemma21_identity_residual((c, c, c), F(9, 7))
        assert gap == 0
        assert residual == 0

    @given(rationals, rationals)
    def test_two_entries_at_minus_alpha(self, alpha, c):
        gap, residual = lemma21_identity_residual((-alpha, -alpha, c), alpha)
        assert gap == 0
        assert residual == 0

    @given(triples, rationals)
    def test_identity_holds_everywhere(self, z, alpha):
        gap, residual = lemma21_identity_residual(z, alpha)
        assert residual == 0
        assert gap >= 0

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            lemma21_identity_residual((1, 2), 0)


class TestRootExtraction:
    def test_known_integer_roots(self):
        # (t-1)(t-2)(t-3) = t^3 - 6t^2 + 11t - 6
        roots = real_cubic_roots(F(-6), F(11), F(-6))
        for r, expected in zip(roots, (1, 2, 3)):
            assert abs(r - expected) < F(1, 10**25)

    def test_double_root_exact(self):
        # (t-1)^2 (t-3) = t^3 - 5t^2 + 7t - 3
        assert real_cubic_roots(F(-5), F(7), F(-3)) == (F(1), F(1), F(3))

    def test_triple_root_exact(self):
        assert real_cubic_roots(F(-2), F(4, 3), F(-8, 27)) == (F(2, 3),) * 3

    def test_complex_pair_rejected(self):
        with pytest.raises(ValueError):
            real_cubic_roots(F(0), F(1), F(0))

    @given(points, st.integers(1, 6))
    def test_residuals_below_tolerance(self, point, k):
        if not window_for(point, k):
            return
        triple = reduce_to_three(point, k)
        if triple.roots is None:
            return
        cubic = associated_cubic(point, k)
        if triple.branch is Branch.CASE_B:
            c0, c1, c2, c3 = cubic.coefficients()
            cubic = Cubic(c3, c2, c1, c0)
        coeffs = cubic.as_poly()
        scale = max(abs(c) for c in coeffs)
        for root_text in triple.roots:
            residual = abs(horner(coeffs, F(root_text)))
            assert residual <= scale / 10**12

    @given(search_roots, search_roots, search_roots, st.sampled_from([None, 8, 10, 13]))
    @example(F(1, 3), F(0), F(-2, 7), 10)
    @example(F(1, 4), F(0), F(-1), 10)
    @example(F(1), F(0), F(2), None)
    @example(F(0), F(0), F(5, 2), None)
    def test_polish_matches_fraction_reference(self, r, s, t, gap_digits):
        # gap_digits clusters two roots 10^-gap_digits apart, which sends
        # most cubics to the bisection fallback
        if gap_digits is not None:
            s = r + F(1, 10**gap_digits)
        if len({r, s, t}) < 3:
            return
        b, c, d = -(r + s + t), r * s + r * t + s * t, -r * s * t
        expected, bisected = reference_distinct_roots(b, c, d)
        with mock.patch.object(
            reduction, "_bisection_roots", wraps=reduction._bisection_roots
        ) as spy:
            roots = real_cubic_roots(b, c, d)
        assert roots == expected
        assert spy.called == bisected

    @pytest.mark.parametrize(
        "r, s",
        [(F(1, 3), F(-2, 7)), (F(-5, 11), F(9, 13)), (F(2, 9), F(1, 4))],
    )
    def test_clustered_roots_take_certified_bisection(self, monkeypatch, r, s):
        # roots 10^-10 apart defeat the trigonometric seeds, so the Sturm
        # bisection fallback has to separate them
        calls = []
        bisect = reduction._bisection_roots

        def spy(poly):
            calls.append(poly)
            return bisect(poly)

        monkeypatch.setattr(reduction, "_bisection_roots", spy)
        exact = sorted([r, r + F(1, 10**10), s])
        triple = reduce_to_three(exact, 1)
        assert len(calls) == 1
        assert triple.branch is Branch.CASE_A
        for text, root in zip(triple.roots, exact):
            assert abs(F(text) - root) < F(1, 10**40)
