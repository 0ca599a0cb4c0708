"""Inequality gap tests: classical, two-term, chains, linear combinations,
and the quantitative form, with equality-case classification."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import (
    nonneg_points,
    nonneg_rationals,
    nonzero_rationals,
    points,
    rationals,
    scan_family_vectors,
    scan_grid_points,
)
from symcert.certificate import theta_for
from symcert.core import sigma_all
from symcert.search import (
    FAMILIES,
    ScanGrid,
    ThetaSummary,
    Witness,
    _rng_for,
    _sample_entry,
    empirical_theta,
    structured_scan,
)
from symcert.gaps import (
    ChainResult,
    EndpointWitness,
    EqualityCase,
    GapReport,
    PreconditionError,
    Relation,
    gen_maclaurin_chain,
    gen_nm_gap,
    linear_combo_gap,
    liu_ren_gap,
    maclaurin_chain_check,
    newton_gap,
    quantitative_gap,
    remark_violation,
)

F = Fraction


class TestNewtonGap:
    def test_one_two_three(self):
        report = newton_gap((1, 2, 3), 1)
        assert report.gap == F(1, 3)
        assert report.relation is Relation.STRICTLY_POSITIVE
        assert report.equality_case is EqualityCase.STRICT

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_constant_point(self, k):
        report = newton_gap((F(5, 3),) * 4, k)
        assert report.gap == 0
        assert report.equality_case is EqualityCase.ALL_EQUAL

    def test_counterexample_point(self):
        assert newton_gap(("4", "4", "1/4", "1/4"), 2).gap == F(6825, 1024)

    def test_two_vanishing_means(self):
        # E_2 = E_3 = 0 without all entries equal: the alpha = 0 ratio case
        report = newton_gap((0, 0, 1), 2)
        assert report.gap == 0
        assert report.equality_case is EqualityCase.RATIO_MINUS_ALPHA

    @pytest.mark.parametrize("k", [0, 3, -1])
    def test_k_out_of_range(self, k):
        with pytest.raises(PreconditionError):
            newton_gap((1, 2, 3), k)

    @given(points, st.integers(1, 7))
    def test_nonnegative_for_real_points(self, point, k):
        if k > len(point) - 1:
            return
        report = newton_gap(point, k)
        assert report.gap >= 0
        if report.gap == 0:
            assert report.equality_case is not EqualityCase.STRICT


class TestMaclaurinChain:
    def test_simple(self):
        assert maclaurin_chain_check((1, 2, 3)) is True

    def test_constant(self):
        assert maclaurin_chain_check((F(7, 5),) * 5) is True

    def test_zero_entry(self):
        assert maclaurin_chain_check((0, 1)) is True

    def test_negative_entry_rejected(self):
        with pytest.raises(PreconditionError):
            maclaurin_chain_check((1, -1, 2))

    @given(nonneg_points)
    def test_holds_on_nonnegative_points(self, point):
        assert maclaurin_chain_check(point) is True


class TestGenNmGap:
    def test_exact_value(self):
        assert gen_nm_gap((1, 2, 3, 4), 1, 1).gap == F(95, 18)

    def test_ratio_minus_alpha_family(self):
        report = gen_nm_gap((-2, -2, -2, 7), 2, 1)
        assert report.gap == 0
        assert report.equality_case is EqualityCase.RATIO_MINUS_ALPHA

    @given(rationals, rationals, st.integers(3, 6))
    def test_constant_point_all_equal(self, c, alpha, n):
        report = gen_nm_gap((c,) * n, alpha, 1)
        assert report.gap == 0
        assert report.equality_case is EqualityCase.ALL_EQUAL

    def test_range_errors(self):
        with pytest.raises(PreconditionError):
            gen_nm_gap((1, 2), 1, 1)
        with pytest.raises(PreconditionError):
            gen_nm_gap((1, 2, 3), 1, 2)
        with pytest.raises(PreconditionError):
            gen_nm_gap((1, 2, 3, 4), 1, 0)

    @given(points, rationals, st.integers(1, 6))
    def test_nonnegative_everywhere(self, point, alpha, k):
        if k > len(point) - 2:
            return
        report = gen_nm_gap(point, alpha, k)
        assert report.gap >= 0
        if report.gap == 0:
            assert report.equality_case is not EqualityCase.STRICT

    @given(points, rationals, nonzero_rationals, st.integers(1, 6))
    def test_scaling_covariance(self, point, alpha, c, k):
        if k > len(point) - 2:
            return
        base = gen_nm_gap(point, alpha, k).gap
        scaled = gen_nm_gap(tuple(c * v for v in point), c * alpha, k).gap
        assert scaled == c ** (2 * k + 2) * base

    @given(points, st.integers(1, 6))
    def test_alpha_zero_specialization(self, point, k):
        if k > len(point) - 2:
            return
        e = sigma_all(point).e_at
        assert gen_nm_gap(point, 0, k).gap == e(k + 1) ** 2 - e(k) * e(k + 2)


class TestGenMaclaurinChain:
    def test_alpha_zero_reduces_to_classical(self):
        result = gen_maclaurin_chain((1, 2, 3), 0)
        assert result.holds is True
        assert result.chain_top == 2
        assert result.precondition_failed_at is None
        assert maclaurin_chain_check((1, 2, 3)) is True

    def test_exact_cross_powers(self):
        result = gen_maclaurin_chain((1, 2, 3, 4), 1)
        assert result.holds is True
        assert result.chain_top == 3
        assert result.first_failure is None

    @given(nonneg_rationals, st.integers(2, 6))
    def test_constant_positive_point(self, c, n):
        result = gen_maclaurin_chain((c,) * n, 1)
        assert result.holds is True
        assert result.chain_top == n - 1

    def test_negative_alpha_rejected(self):
        with pytest.raises(PreconditionError):
            gen_maclaurin_chain((1, 2, 3), -1)

    def test_precondition_break_is_reported(self):
        # E_3 = -6 < 0 breaks the m = 2 hypothesis; the shorter chain holds
        result = gen_maclaurin_chain((-1, 2, 3), 0)
        assert result.precondition_failed_at == 2
        assert result.chain_top == 1
        assert result.holds is True

    def test_immediate_break(self):
        result = gen_maclaurin_chain((-1, -1, -1), 0)
        assert result.precondition_failed_at == 0
        assert result.chain_top == -1
        assert result.holds is True

    @given(nonneg_points, nonneg_rationals)
    def test_chain_transitivity(self, point, alpha):
        # every pairwise cross-power comparison follows from the chain:
        # terms[m] enters with exponent 1/(m+1), so for i < j the
        # comparison is terms[i]^(j+1) >= terms[j]^(i+1)
        result = gen_maclaurin_chain(point, alpha)
        assert result.holds is True
        e = sigma_all(point).e_at
        terms = [alpha * e(m) + e(m + 1) for m in range(result.chain_top + 1)]
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                assert terms[i] ** (j + 1) >= terms[j] ** (i + 1)


class TestLinearComboGap:
    def test_published_counterexample(self):
        report = linear_combo_gap(("4", "4", "1/4", "1/4"), (1, 0, 1))
        assert report.gap == F(-825, 1024)
        assert report.relation is Relation.NEGATIVE

    @given(points, st.integers(1, 6))
    def test_one_hot_reduces_to_newton(self, point, k):
        if k > len(point) - 1:
            return
        coeffs = tuple(F(1) if j == k else F(0) for j in range(1, k + 1))
        assert linear_combo_gap(point, coeffs).gap == newton_gap(point, k).gap

    @given(nonzero_rationals)
    def test_constant_point_sign_reported(self, c):
        report = linear_combo_gap((c,) * 3, (1, 0, 1))
        expected = {1: Relation.STRICTLY_POSITIVE, 0: Relation.ZERO, -1: Relation.NEGATIVE}
        sign = 1 if report.gap > 0 else (0 if report.gap == 0 else -1)
        assert report.relation is expected[sign]

    def test_coefficients_beyond_point_length(self):
        # means beyond n are zero by convention; the sum stays defined
        report = linear_combo_gap((1, 2), (1, 1, 1, 1, 1))
        assert report.gap == report.lhs - report.rhs

    def test_empty_coefficients_rejected(self):
        with pytest.raises(PreconditionError):
            linear_combo_gap((1, 2, 3), ())


class TestQuantitativeGap:
    def test_k0_exact_value(self):
        assert quantitative_gap((1, 2, 3), -1, 0, F(1, 2)).gap == F(15, 2)

    @given(points, st.integers(0, 6), st.fractions(min_value="1/10", max_value="9/10", max_denominator=20))
    def test_alpha_zero_form(self, point, k, theta):
        if k > len(point) - 1:
            return
        s = sigma_all(point).sigma_at
        expected = (1 - theta) * s(k + 1) ** 2 - s(k) * s(k + 2)
        assert quantitative_gap(point, 0, k, theta).gap == expected

    @given(points, rationals, st.integers(0, 6))
    def test_nonnegative_at_certified_theta(self, point, alpha, k):
        n = len(point)
        if k > n - 1:
            return
        assert quantitative_gap(point, alpha, k, theta_for(n, k)).gap >= 0

    def test_theta_out_of_range(self):
        with pytest.raises(PreconditionError):
            quantitative_gap((1, 2, 3), 1, 1, F(3, 2))
        with pytest.raises(PreconditionError):
            quantitative_gap((1, 2, 3), 1, 1, 0)

    def test_k_out_of_range(self):
        with pytest.raises(PreconditionError):
            quantitative_gap((1, 2, 3), 1, 3, F(1, 2))


class TestLiuRenGap:
    def test_exact_value(self):
        report = liu_ren_gap((1, 2, 3), 1, 2)
        assert report.gap == F(170)
        assert report.gap >= 0

    @given(st.fractions(min_value="1/5", max_value=10, max_denominator=20))
    def test_constant_positive_point(self, c):
        assert liu_ren_gap((c, c, c), 1, 2).gap >= 0

    def test_outside_cone_is_precondition_error(self):
        with pytest.raises(PreconditionError):
            liu_ren_gap((-1, -1, 5), 1, 2)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(PreconditionError):
            liu_ren_gap((1, 2, 3), 0, 2)

    def test_k_range(self):
        with pytest.raises(PreconditionError):
            liu_ren_gap((1, 2, 3), 1, 1)

    @given(st.lists(st.fractions(min_value="1/4", max_value=8, max_denominator=12), min_size=3, max_size=6).map(tuple), st.fractions(min_value="1/7", max_value=5, max_denominator=11), st.integers(2, 5))
    def test_nonnegative_inside_cone(self, point, alpha, k):
        if k > len(point) - 1:
            return
        assert liu_ren_gap(point, alpha, k).gap >= 0


class TestRemarkViolation:
    def test_k0_gap_minus_one(self):
        witness = remark_violation(3, 0)
        assert witness.report.gap == F(-1)
        assert witness.x == (F(2), F(2), F(2))
        assert witness.alpha == F(-1)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_top_endpoint_negative(self, n):
        witness = remark_violation(n, n - 1)
        # constant point c = 1/2, alpha = -1: gap = c^(2n-1) (alpha + c)
        assert witness.report.gap == F(1, 2) ** (2 * n - 1) * F(-1, 2)
        assert witness.report.relation is Relation.NEGATIVE

    def test_interior_k_rejected(self):
        with pytest.raises(PreconditionError):
            remark_violation(4, 1)

    def test_witness_recomputes(self):
        witness = remark_violation(5, 4)
        e = sigma_all(witness.x).e_at
        a, k = witness.alpha, witness.k
        lhs = (a * e(k) + e(k + 1)) ** 2
        rhs = (a * e(k - 1) + e(k)) * (a * e(k + 1) + e(k + 2))
        assert witness.report.gap == lhs - rhs < 0


class TestGapReport:
    @given(rationals, rationals)
    def test_relation_consistent_with_sign(self, lhs, rhs):
        den = lhs.denominator * rhs.denominator
        report = GapReport.over(int(lhs * den), int(rhs * den), den)
        assert report.gap == lhs - rhs
        if report.gap > 0:
            assert report.relation is Relation.STRICTLY_POSITIVE
        elif report.gap == 0:
            assert report.relation is Relation.ZERO
        else:
            assert report.relation is Relation.NEGATIVE

    def test_json_fields(self):
        report = linear_combo_gap(("4", "4", "1/4", "1/4"), (1, 0, 1))
        data = report.to_json_dict()
        assert data == {
            "lhs": "289/16",
            "rhs": "19321/1024",
            "gap": "-825/1024",
            "relation": "Negative",
            "equality_case": "NotApplicable",
        }


# -- the Fraction evaluators that the integer window replaced -----------------
#
# Each reference builds every sigma, mean and window term as a Fraction, the
# way the gap layer did before it read gaps._integer_window; the kernel
# versions must give equal reports and byte-identical JSON.


def _ref_report(lhs, rhs, case=EqualityCase.NOT_APPLICABLE):
    gap = lhs - rhs
    if gap > 0:
        relation = Relation.STRICTLY_POSITIVE
    elif gap == 0:
        relation = Relation.ZERO
    else:
        relation = Relation.NEGATIVE
    return GapReport(lhs, rhs, gap, relation, case)


def _ref_window(u, alpha, j):
    return alpha * u(j - 1) + u(j), alpha * u(j) + u(j + 1), alpha * u(j + 1) + u(j + 2)


def ref_gen_nm_gap(point, alpha, k):
    p, s, q = _ref_window(sigma_all(point).e_at, alpha, k)
    lhs, rhs = s**2, p * q
    if lhs != rhs:
        case = EqualityCase.STRICT
    elif all(v == point[0] for v in point):
        case = EqualityCase.ALL_EQUAL
    elif s == -alpha * p and q == -alpha * s:
        case = EqualityCase.RATIO_MINUS_ALPHA
    else:
        case = EqualityCase.NOT_APPLICABLE
    return _ref_report(lhs, rhs, case)


def ref_quantitative_gap(point, alpha, k, theta):
    p, s, q = _ref_window(sigma_all(point).sigma_at, alpha, k)
    return _ref_report((1 - theta) * s**2, p * q)


def ref_liu_ren_gap(point, alpha, k):
    """None outside the level-k positivity cone."""
    profile = sigma_all(point)
    if not all(profile.sigma[m] > 0 for m in range(1, k + 1)):
        return None
    p, s, q = _ref_window(profile.sigma_at, alpha, k - 1)
    return _ref_report(s**2, p * q)


def ref_gen_maclaurin_chain(point, alpha):
    e = sigma_all(point).e_at
    terms = [alpha * e(m) + e(m + 1) for m in range(len(point))]
    chain_top = -1
    failed_at = None
    for m, value in enumerate(terms):
        if value < 0:
            failed_at = m
            break
        chain_top = m
    first_failure = None
    for m in range(1, chain_top + 1):
        if terms[m - 1] ** (m + 1) < terms[m] ** m:
            first_failure = m
            break
    return ChainResult(first_failure is None, chain_top, failed_at, first_failure)


def ref_remark_violation(n, k):
    c = F(2) if k == 0 else F(1, 2)
    point, alpha = (c,) * n, F(-1)
    p, s, q = _ref_window(sigma_all(point).e_at, alpha, k)
    return EndpointWitness(point, alpha, k, _ref_report(s**2, p * q))


def ref_empirical_theta(n, k, samples, seed):
    certified = theta_for(n, k)
    skipped = 0
    min_ratio = argmin = None
    for i in range(samples):
        rng = _rng_for(seed, i)
        alpha = _sample_entry(rng, negative_rate=0.5)
        if i % 8 == 7:
            tail = _sample_entry(rng)
            jitter = F(rng.randint(-1, 1), 10**4)
            point = (-alpha + jitter,) + (-alpha,) * (n - 2) + (tail,)
        else:
            point = tuple(_sample_entry(rng, negative_rate=0.5) for _ in range(n))
        p, s, q = _ref_window(sigma_all(point).sigma_at, alpha, k)
        if s == 0:
            skipped += 1
            continue
        ratio = 1 - p * q / s**2
        assert ratio >= certified
        if min_ratio is None or ratio < min_ratio:
            min_ratio = ratio
            argmin = Witness(point, None, alpha, k, ratio, "ThetaRatio", seed, i)
    return ThetaSummary(n, k, samples, skipped, certified, min_ratio, argmin)


def ref_combo_sides(means, weights):
    """(mid^2, low*high) for the combination sum_k a_k E_k (k = 1..m) over
    the means E_0..E_n, zero past the ends.  Zero weights add nothing, so
    they are skipped."""
    top = len(means) - 1
    mid = low = high = F(0)
    for k, c in enumerate(weights, start=1):
        if c:
            if k <= top:
                mid += c * means[k]
            if k - 1 <= top:
                low += c * means[k - 1]
            if k + 1 <= top:
                high += c * means[k + 1]
    return mid * mid, low * high


def ref_linear_combo_gap(point, coeffs):
    weights = [F(c) for c in coeffs]
    return _ref_report(*ref_combo_sides(sigma_all(point).e_list(), weights))


# denominators up to 10^6, so a point's entries rarely share one
wide_rationals = st.fractions(min_value=-10, max_value=10, max_denominator=10**6)
zero_heavy = st.sampled_from((F(0), F(0), F(0), F(1), F(-1), F(1, 2)))
mixed_entries = st.one_of(wide_rationals, rationals, zero_heavy)
mixed_points = st.lists(mixed_entries, min_size=3, max_size=8).map(tuple)
alphas = st.one_of(st.just(F(0)), wide_rationals, rationals)
constant_points = st.builds(lambda c, n: (c,) * n, mixed_entries, st.integers(3, 8))
# mostly shorter than n+1 = 4..9, sometimes longer
combo_weights = st.lists(mixed_entries, min_size=1, max_size=12)


def _same(report, reference):
    assert report == reference
    assert report.to_json_dict() == reference.to_json_dict()


class TestFractionReference:
    @given(st.one_of(mixed_points, constant_points), alphas)
    def test_gen_nm_gap(self, point, alpha):
        for k in range(1, len(point) - 1):
            _same(gen_nm_gap(point, alpha, k), ref_gen_nm_gap(point, alpha, k))

    @given(st.one_of(mixed_points, constant_points))
    def test_newton_gap(self, point):
        for k in range(1, len(point)):
            _same(newton_gap(point, k), ref_gen_nm_gap(point, F(0), k - 1))

    @given(
        st.one_of(mixed_points, constant_points),
        alphas,
        st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda t: 0 < t < 1),
    )
    def test_quantitative_gap_every_k(self, point, alpha, theta):
        n = len(point)
        # k = 0 and k = n-1 read sigmas off both ends
        for k in range(n):
            for th in (theta, theta_for(n, k)):
                _same(quantitative_gap(point, alpha, k, th), ref_quantitative_gap(point, alpha, k, th))

    @given(
        st.one_of(mixed_points, constant_points),
        st.fractions(min_value=0, max_value=10, max_denominator=10**6).filter(lambda a: a > 0),
    )
    def test_liu_ren_gap(self, point, alpha):
        for k in range(2, len(point)):
            reference = ref_liu_ren_gap(point, alpha, k)
            if reference is None:
                with pytest.raises(PreconditionError):
                    liu_ren_gap(point, alpha, k)
            else:
                _same(liu_ren_gap(point, alpha, k), reference)

    @given(
        st.lists(st.fractions(min_value="1/10", max_value=10, max_denominator=10**6), min_size=2, max_size=7),
        st.fractions(min_value="1/10", max_value=5, max_denominator=1000),
    )
    def test_liu_ren_gap_on_the_cone_boundary(self, head, alpha):
        # the last entry makes sigma_2 exactly zero: outside every cone from
        # level 2 on, while a zero entry keeps sigma_n = 0 on the top boundary
        s1, s2 = sum(head), sigma_all(head).sigma[2]
        on_boundary = (*head, -s2 / s1)
        assert sigma_all(on_boundary).sigma[2] == 0
        with_zero = (*head, F(0))
        for k in range(2, len(on_boundary)):
            assert ref_liu_ren_gap(on_boundary, alpha, k) is None
            with pytest.raises(PreconditionError):
                liu_ren_gap(on_boundary, alpha, k)
            _same(liu_ren_gap(with_zero, alpha, k), ref_liu_ren_gap(with_zero, alpha, k))

    @given(
        st.one_of(mixed_points, constant_points, nonneg_points),
        st.one_of(st.just(F(0)), nonneg_rationals, wide_rationals.map(abs)),
    )
    def test_gen_maclaurin_chain(self, point, alpha):
        assert gen_maclaurin_chain(point, alpha) == ref_gen_maclaurin_chain(point, alpha)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_remark_violation(self, n):
        for k in (0, n - 1):
            witness = remark_violation(n, k)
            assert witness == ref_remark_violation(n, k)
            assert witness.to_json_dict() == ref_remark_violation(n, k).to_json_dict()

    @pytest.mark.parametrize("n, k", [(3, 0), (3, 1), (3, 2), (5, 0), (5, 2), (5, 4), (8, 3)])
    def test_empirical_theta(self, n, k):
        for seed in (0, 7):
            summary = empirical_theta(n, k, 48, seed)
            assert summary == ref_empirical_theta(n, k, 48, seed)
            assert summary.to_json_dict() == ref_empirical_theta(n, k, 48, seed).to_json_dict()

    @pytest.mark.parametrize(
        "alpha",
        [F(-7, 3), F(-1), F(-1, 999_983), F(0), F(1, 999_983), F(2, 5), F(3)],
    )
    def test_ratio_minus_alpha_family(self, alpha):
        # n-1 entries at -alpha and a tail over a different denominator:
        # the gap is zero with the RatioMinusAlpha label for every k and
        # every position of the tail, and the scale D must not leak into
        # the ratio conditions
        for n in range(3, 8):
            for tail in (F(5, 7), F(-3, 1_000_000), F(11)):
                for position in range(n):
                    point = [-alpha] * (n - 1)
                    point.insert(position, tail)
                    point = tuple(point)
                    for k in range(1, n - 1):
                        report = gen_nm_gap(point, alpha, k)
                        _same(report, ref_gen_nm_gap(point, alpha, k))
                        assert report.gap == 0
                        assert report.equality_case is EqualityCase.RATIO_MINUS_ALPHA


class TestComboFractionReference:
    """linear_combo_gap and structured_scan on the integer window against
    the combination on Fraction means from sigma_all."""

    @given(st.one_of(mixed_points, constant_points), combo_weights)
    def test_linear_combo_gap(self, point, weights):
        _same(linear_combo_gap(point, weights), ref_linear_combo_gap(point, weights))

    @given(st.one_of(mixed_points, constant_points), st.integers(1, 12))
    def test_all_zero_weights(self, point, m):
        report = linear_combo_gap(point, (F(0),) * m)
        _same(report, ref_linear_combo_gap(point, (F(0),) * m))
        assert report.gap == 0

    @given(mixed_points, st.data())
    def test_weights_past_slot_n_plus_one(self, point, data):
        n = len(point)
        weights = data.draw(st.lists(mixed_entries, min_size=n + 2, max_size=n + 6))
        report = linear_combo_gap(point, weights)
        _same(report, ref_linear_combo_gap(point, weights))
        # those weights read only the zero means past n
        assert report == linear_combo_gap(point, weights[: n + 1])

    @pytest.mark.parametrize("last", [F(3, 7), F(-5, 999_983), F(-2), F(0)])
    @given(st.one_of(mixed_points, constant_points), st.lists(mixed_entries, max_size=8))
    def test_last_weight_fractional_negative_or_zero(self, last, point, head):
        weights = (*head, last)
        _same(linear_combo_gap(point, weights), ref_linear_combo_gap(point, weights))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize(
        "n, grid",
        [
            (1, None),
            (3, None),
            (4, ScanGrid.of(["3", "1", "0", "-1/2", "5/999983"])),
            (2, None),
            (5, None),
            (6, None),
        ],
    )
    def test_structured_scan(self, family, n, grid):
        report = structured_scan(family, n, grid)
        grid = grid or ScanGrid()
        counts = {Relation.STRICTLY_POSITIVE: 0, Relation.ZERO: 0, Relation.NEGATIVE: 0}
        points = scan_grid_points(n + 1, grid)
        for coeffs in scan_family_vectors(family, n, grid):
            for point in points:
                counts[ref_linear_combo_gap(point, coeffs).relation] += 1
        assert (report.positive, report.zero, report.negative) == tuple(counts.values())
        assert report.evaluated == sum(counts.values())
        for witness in report.witnesses:
            reference = ref_linear_combo_gap(witness.x, witness.coeffs)
            assert witness.gap == linear_combo_gap(witness.x, witness.coeffs).gap == reference.gap
