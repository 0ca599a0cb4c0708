"""Exact-core tests: binomials, symmetric functions, the enumeration
oracle, and the out-of-range-is-zero convention."""

import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import nonzero_rationals, points, rationals, sigma_naive
from symcert.core import (
    as_point,
    as_rational,
    binomial,
    e_all,
    garding_membership,
    parse_point,
    sigma_all,
    to_json,
)

F = Fraction

search_entries = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-25, max_value=25, max_denominator=10**6),
)


class TestBinomial:
    def test_small_pascal_row(self):
        assert binomial(4, 2) == 6

    @pytest.mark.parametrize("n", [0, 1, 5, 17])
    def test_identity_case(self, n):
        assert binomial(n, 0) == 1

    def test_factorial_oracle(self):
        expected = math.factorial(10) // (math.factorial(5) * math.factorial(5))
        assert expected == 252
        assert binomial(10, 5) == expected

    def test_out_of_range_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(0, 30), st.integers(-5, 35))
    def test_matches_factorial_formula(self, n, k):
        if 0 <= k <= n:
            expected = math.factorial(n) // (math.factorial(k) * math.factorial(n - k))
        else:
            expected = 0
        assert binomial(n, k) == expected


class TestSigma:
    def test_counterexample_point_profile(self):
        profile = sigma_all(("4", "4", "1/4", "1/4"))
        assert profile.sigma == (F(1), F(17, 2), F(321, 16), F(17, 2), F(1))
        assert profile.e_list() == [F(1), F(17, 8), F(107, 32), F(17, 8), F(1)]

    def test_all_ones_gives_binomial_row(self):
        assert sigma_all((1, 1, 1)).sigma == (F(1), F(3), F(3), F(1))

    def test_matches_naive_n10(self):
        rng = random.Random(42)
        point = tuple(F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(10))
        assert sigma_all(point).sigma == sigma_naive(point).sigma

    @given(st.lists(rationals, min_size=1, max_size=8).map(tuple))
    def test_oracle_equivalence(self, point):
        assert sigma_all(point).sigma == sigma_naive(point).sigma

    @given(st.lists(search_entries, min_size=1, max_size=12).map(tuple))
    def test_oracle_equivalence_on_search_points(self, point):
        # the shape search feeds sigma_all: up to 12 entries over
        # denominators up to 10^6, with zeros and negatives
        assert sigma_all(point).sigma == sigma_naive(point).sigma

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fraction_recurrence_n40(self, seed):
        rng = random.Random(seed)
        point = [F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(38)]
        point += [F(0), F(-3, 7)]
        rng.shuffle(point)
        sig = [F(1)] + [F(0)] * len(point)
        for i, v in enumerate(point):
            for k in range(i + 1, 0, -1):
                sig[k] += v * sig[k - 1]
        assert sigma_all(point).sigma == tuple(sig)

    def test_naive_examples(self):
        assert sigma_naive((1, 2, 3)).sigma == (F(1), F(6), F(11), F(6))
        assert sigma_naive((F(5, 7),)).sigma == (F(1), F(5, 7))
        assert sigma_naive((0, 0)).sigma == (F(1), F(0), F(0))

    def test_naive_refuses_large_points(self):
        with pytest.raises(ValueError):
            sigma_naive((1,) * 21)

    @given(points, nonzero_rationals)
    def test_homogeneity(self, point, c):
        base = sigma_all(point).sigma
        scaled = sigma_all(tuple(c * v for v in point)).sigma
        assert all(scaled[k] == c**k * base[k] for k in range(len(point) + 1))

    @given(points, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, point, rnd):
        shuffled = list(point)
        rnd.shuffle(shuffled)
        assert sigma_all(shuffled).sigma == sigma_all(point).sigma

    @given(points)
    def test_square_identity_low(self, point):
        s = sigma_all(point).sigma_at
        assert s(1) ** 2 == sum(v**2 for v in point) + 2 * s(2)

    @given(points)
    def test_square_identity_high(self, point):
        if any(v == 0 for v in point):
            return
        n = len(point)
        s = sigma_all(point).sigma_at
        assert s(n - 1) ** 2 == sum((s(n) / v) ** 2 for v in point) + 2 * s(n - 2) * s(n)

    def test_out_of_range_indices_are_zero(self):
        profile = sigma_all((1, 2, 3))
        assert profile.sigma_at(-1) == 0
        assert profile.sigma_at(4) == 0
        assert profile.sigma_at(0) == 1
        assert profile.e_at(-2) == 0
        assert profile.e_at(7) == 0


class TestMeans:
    def test_counterexample_means(self):
        assert e_all(("4", "4", "1/4", "1/4")) == [F(1), F(17, 8), F(107, 32), F(17, 8), F(1)]

    @given(rationals, st.integers(1, 7))
    def test_constant_point_powers(self, c, n):
        assert e_all((c,) * n) == [c**k for k in range(n + 1)]

    def test_one_two_three_four(self):
        assert e_all((1, 2, 3, 4)) == [F(1), F(5, 2), F(35, 6), F(25, 2), F(24)]


class TestGarding:
    def test_positive_entries(self):
        assert garding_membership((1, 2, 3), 2) is True

    def test_negative_sigma2(self):
        assert sigma_all((-1, -1, 5)).sigma_at(2) == -9
        assert garding_membership((-1, -1, 5), 2) is False

    def test_all_ones_top_level(self):
        assert garding_membership((1, 1, 1), 3) is True

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_out_of_range_k(self, k):
        with pytest.raises(ValueError):
            garding_membership((1, 2, 3), k)


class TestParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1/4", F(1, 4)),
            ("0.25", F(1, 4)),
            ("-3/7", F(-3, 7)),
            ("4", F(4)),
            ("1.5e-3", F(3, 2000)),
            ("1e-3", F(1, 1000)),
            ("2.5E+2", F(250)),
            ("1e4300", F(10**4300)),
            ("-1E-4300", F(-1, 10**4300)),
        ],
    )
    def test_parse_rational(self, text, value):
        assert as_rational(text) == value

    def test_parse_rational_rejects_garbage(self):
        with pytest.raises(ValueError):
            as_rational("pi")

    @pytest.mark.parametrize("text", ["1e4301", "1e-4301", "2.5E+1_000_000", "1e1000000000"])
    def test_parse_rational_bounds_exponent(self, text):
        with pytest.raises(ValueError, match="exponent"):
            as_rational(text)

    def test_parse_point_literal(self):
        assert parse_point('["4","4","1/4","1/4"]') == (F(4), F(4), F(1, 4), F(1, 4))
        assert parse_point('["0.25", 3]') == (F(1, 4), F(3))

    def test_parse_point_rejects_floats(self):
        with pytest.raises(ValueError):
            parse_point("[0.1]")

    def test_parse_point_rejects_non_array(self):
        with pytest.raises(ValueError):
            parse_point('{"a": 1}')

    def test_empty_point_rejected(self):
        with pytest.raises(ValueError):
            as_point(())

    @given(rationals)
    def test_format_round_trip(self, q):
        assert as_rational(to_json(q)) == q

    @given(points)
    def test_point_format_round_trip(self, point):
        assert as_point(to_json(point)) == point
