"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them inline).  Sample counts and tolerances are
pinned here; every asserted number was computed by an independent oracle
or is an exact identity.
"""

import contextlib
import json
import random
import time
from fractions import Fraction

from conftest import horner, rand_fraction, sigma_naive
from symcert import report_bundle
from symcert.certificate import (
    cert_constants,
    decomposition_coefficient_match,
    decomposition_residual,
    f1,
    f2,
    f3,
    f4,
    f_scan,
    lemma31_check,
    lemma32_check,
    theta_for,
)
from symcert.core import e_all, sigma_all
from symcert.gaps import (
    EqualityCase,
    gen_maclaurin_chain,
    gen_nm_gap,
    linear_combo_gap,
    maclaurin_chain_check,
    quantitative_gap,
    remark_violation,
)
from symcert.reduction import (
    Branch,
    Cubic,
    associated_cubic,
    cubic_discriminant,
    gap_from_moments,
    lemma21_identity_residual,
    reduce_to_three,
)
from symcert.search import empirical_theta, find_counterexample_15

F = Fraction


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {label}")


def test_criterion_1_counterexample_reproduction():
    with criterion(1, "counterexample reproduction with exact means"):
        start = time.perf_counter()
        means = e_all(("4", "4", "1/4", "1/4"))
        assert means == [F(1), F(17, 8), F(107, 32), F(17, 8), F(1)]
        report = linear_combo_gap(("4", "4", "1/4", "1/4"), (1, 0, 1))
        assert report.gap == F(-825, 1024)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_decomposition_identity():
    with criterion(2, "decomposition residual zero, 10k samples + symbolic match"):
        start = time.perf_counter()
        pairs = [(n, k) for n in range(4, 13) for k in range(1, n - 1)]
        rng = random.Random(20_240_001)
        for i in range(10_000):
            n, k = pairs[i % len(pairs)]
            z = tuple(rand_fraction(rng, max_denominator=40) for _ in range(3))
            alpha = rand_fraction(rng, max_denominator=40)
            assert decomposition_residual(z, alpha, n, k) == 0
        for n, k in pairs:
            assert decomposition_coefficient_match(n, k) is True
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.3f}s"


def test_criterion_3_lemma_scans_to_64():
    with criterion(3, "lemma scans and theta1 in (0,1) for 4 <= n <= 64"):
        start = time.perf_counter()
        pairs = 0
        for n in range(4, 65):
            rows = f_scan(n)
            assert all(row.all_positive for row in rows)
            assert f1(n, 1) == 3 * (n - 3)
            assert f2(n, 1) == f2(n, n - 2) == 3 * (n - 3)
            assert f3(n, 1) == f3(n, n - 2) == 3 * (n - 3)
            assert f4(n, 1) == f4(n, n - 2) == 3 * (n - 3)
            for k in range(1, n - 1):
                pairs += 1
                assert lemma31_check(n, k).all_positive
                assert lemma32_check(n, k).all_positive
                consts = cert_constants(n, k)
                assert 0 < consts.theta1 < 1
                assert consts.theta2 > 0
                quad = consts.quad
                assert quad.b * quad.c < 9 * quad.a * quad.d
        assert pairs == sum(n - 2 for n in range(4, 65))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_4_two_term_suite():
    with criterion(4, "two-term gap nonnegative on 10k real samples + equality cases"):
        rng = random.Random(20_240_004)
        for _ in range(10_000):
            n = rng.randint(3, 10)
            point = tuple(rand_fraction(rng, max_denominator=40) for _ in range(n))
            k = rng.randint(1, n - 2)
            alpha = rand_fraction(rng, max_denominator=40)
            report = gen_nm_gap(point, alpha, k)
            assert report.gap >= 0
            if report.gap == 0:
                assert report.equality_case is not EqualityCase.STRICT
        # n-1 entries at -alpha: gap exactly zero, classified RatioMinusAlpha
        for _ in range(300):
            n = rng.randint(3, 10)
            k = rng.randint(1, n - 2)
            alpha = rand_fraction(rng, max_denominator=12)
            tail = rand_fraction(rng, max_denominator=12)
            if tail == -alpha:
                tail += 1
            family = [-alpha] * (n - 1) + [tail]
            rng.shuffle(family)
            report = gen_nm_gap(tuple(family), alpha, k)
            assert report.gap == 0
            assert report.equality_case is EqualityCase.RATIO_MINUS_ALPHA
        # all-equal points: gap exactly zero
        for _ in range(300):
            n = rng.randint(3, 10)
            k = rng.randint(1, n - 2)
            c = rand_fraction(rng, max_denominator=12)
            report = gen_nm_gap((c,) * n, rand_fraction(rng, max_denominator=12), k)
            assert report.gap == 0
            assert report.equality_case is EqualityCase.ALL_EQUAL


def test_criterion_5_quantitative_suite():
    with criterion(5, "quantitative gap nonnegative at certified theta, 10k samples"):
        rng = random.Random(20_240_005)
        kinds = ("k0", "kn1", "n3k1", "general")
        for i in range(10_000):
            kind = kinds[i % 4]
            if kind == "k0":
                n = rng.randint(3, 10)
                k = 0
            elif kind == "kn1":
                n = rng.randint(3, 10)
                k = n - 1
            elif kind == "n3k1":
                n, k = 3, 1
            else:
                n = rng.randint(4, 10)
                k = rng.randint(1, n - 2)
            point = tuple(rand_fraction(rng, max_denominator=40) for _ in range(n))
            alpha = rand_fraction(rng, max_denominator=40)
            report = quantitative_gap(point, alpha, k, theta_for(n, k))
            assert report.gap >= 0
        # empirical ratios never undercut the certified constants
        for n, k in ((4, 1), (5, 2), (3, 1), (6, 3), (7, 1)):
            summary = empirical_theta(n, k, samples=400, seed=911)
            assert summary.min_ratio >= theta_for(n, k)


def test_criterion_6_endpoint_violations():
    with criterion(6, "endpoint constant-point violations at k = 0 and k = n-1"):
        witness = remark_violation(3, 0)
        assert witness.report.gap == F(-1)
        assert witness.x == (F(2), F(2), F(2)) and witness.alpha == F(-1)
        for n in range(3, 9):
            assert remark_violation(n, 0).report.gap < 0
            assert remark_violation(n, n - 1).report.gap < 0


def test_criterion_7_oracle_equivalence():
    with criterion(7, "recurrence matches subset-enumeration oracle, 1k per n <= 12"):
        rng = random.Random(20_240_007)
        for n in range(1, 13):
            for _ in range(1_000):
                point = tuple(rand_fraction(rng, max_denominator=8) for _ in range(n))
                assert sigma_all(point).sigma == sigma_naive(point).sigma


def test_criterion_8_reduction_suite():
    with criterion(8, "reduction suite on 10k samples: discriminants, identity, round trip, roots"):
        rng = random.Random(20_240_008)
        residual_bound_checked = 0
        for _ in range(10_000):
            n = rng.randint(3, 10)
            point = tuple(rand_fraction(rng, max_denominator=30) for _ in range(n))
            k = rng.randint(1, n - 2)
            alpha = rand_fraction(rng, max_denominator=30)

            cubic = associated_cubic(point, k)
            assert cubic_discriminant(cubic) >= 0

            gap, residual = lemma21_identity_residual(point[:3], alpha)
            assert residual == 0 and gap >= 0

            triple = reduce_to_three(point, k)
            if triple.branch is Branch.CASE_A:
                lead = sigma_all(point).e_at(k - 1)
                reduced = gap_from_moments(*triple.vieta_moments, alpha)
                assert reduced * lead**2 == gen_nm_gap(point, alpha, k).gap
            if triple.roots is not None:
                check = cubic
                if triple.branch is Branch.CASE_B:
                    c0, c1, c2, c3 = cubic.coefficients()
                    check = Cubic(c3, c2, c1, c0)
                coeffs = check.as_poly()
                scale = max(abs(c) for c in coeffs)
                for root_text in triple.roots:
                    assert abs(horner(coeffs, F(root_text))) <= scale / 10**12
                    residual_bound_checked += 1
        assert residual_bound_checked > 20_000


def test_criterion_9_chain_suites():
    with criterion(9, "classical and generalized chains on 10k nonnegative samples"):
        rng = random.Random(20_240_009)
        for _ in range(10_000):
            n = rng.randint(2, 10)
            point = tuple(abs(rand_fraction(rng, max_denominator=30)) for _ in range(n))
            alpha = abs(rand_fraction(rng, max_denominator=30))
            assert maclaurin_chain_check(point) is True
            result = gen_maclaurin_chain(point, alpha)
            assert result.holds is True
            assert result.chain_top == n - 1
            assert result.first_failure is None


def test_criterion_10_determinism():
    with criterion(10, "byte-identical reports and search runs under fixed seeds"):
        first = json.dumps(report_bundle(6, seed=5, samples=60), indent=2)
        second = json.dumps(report_bundle(6, seed=5, samples=60), indent=2)
        assert first == second

        hunt_a = find_counterexample_15(4, 5, seed=77, budget=60)
        hunt_b = find_counterexample_15(4, 5, seed=77, budget=60)
        assert hunt_a == hunt_b
        if hunt_a is not None:
            assert json.dumps(hunt_a.to_json_dict()) == json.dumps(hunt_b.to_json_dict())

        theta_a = empirical_theta(5, 2, samples=80, seed=31)
        theta_b = empirical_theta(5, 2, samples=80, seed=31)
        assert json.dumps(theta_a.to_json_dict()) == json.dumps(theta_b.to_json_dict())
