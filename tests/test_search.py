"""Search tests: determinism, exact re-verification of every witness, the
empirical theta bracket, and the structured family scans."""

import math
from fractions import Fraction

import pytest

from symcert import search
from symcert.certificate import theta_for
from symcert.gaps import linear_combo_gap
from symcert.search import (
    CertificateViolation,
    ScanGrid,
    empirical_theta,
    find_counterexample_15,
    structured_scan,
)

F = Fraction


def reference_refine_point(rng, point, coeffs, steps=60):
    """Greedy refinement that rationalizes every coordinate of every
    candidate; _refine_point must return the same point."""
    best = [float(v) for v in point]
    best_gap = search._float_combo_gap([F(v).limit_denominator(10**6) for v in best], coeffs)
    current = list(best)
    for _ in range(steps):
        idx = rng.randrange(len(current))
        saved = current[idx]
        current[idx] = saved * math.exp(rng.gauss(0.0, 0.3))
        gap = search._float_combo_gap([F(v).limit_denominator(10**6) for v in current], coeffs)
        if gap < best_gap:
            best_gap = gap
            best = list(current)
        else:
            current[idx] = saved
    return tuple(F(v).limit_denominator(10**6) for v in best)


class TestFindCounterexample:
    def test_anchor_hits_published_family(self):
        witness = find_counterexample_15(3, 4, seed=11, budget=1)
        assert witness is not None
        assert witness.gap == F(-825, 1024)
        assert witness.x == (F(4), F(4), F(1, 4), F(1, 4))
        assert witness.coeffs == (F(1), F(0), F(1))
        assert witness.iteration == 0

    def test_single_coefficient_never_finds(self):
        assert find_counterexample_15(1, 4, seed=3, budget=100) is None

    def test_adjacent_pair_never_finds(self):
        # two coefficients form an adjacent pair, covered by the two-term bound
        assert find_counterexample_15(2, 5, seed=3, budget=150) is None

    def test_deterministic(self):
        first = find_counterexample_15(4, 5, seed=9, budget=120)
        second = find_counterexample_15(4, 5, seed=9, budget=120)
        assert first == second

    def test_first_hit_ends_the_hunt(self, monkeypatch):
        # the anchor hits at iteration 0, so no later probe is checked exactly
        import symcert.search as search_module

        calls = []

        def spy(point, coeffs):
            calls.append(point)
            return linear_combo_gap(point, coeffs)

        monkeypatch.setattr(search_module, "linear_combo_gap", spy)
        witness = find_counterexample_15(3, 4, seed=0, budget=2000)
        assert witness is not None and witness.iteration == 0
        assert len(calls) == 1

    def test_witness_reverifies_exactly(self):
        witness = find_counterexample_15(3, 4, seed=2, budget=40)
        assert witness is not None
        recomputed = linear_combo_gap(witness.x, witness.coeffs).gap
        assert recomputed == witness.gap < 0

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            find_counterexample_15(3, 4, seed=0, budget=0)

    @pytest.mark.parametrize("seed", range(12))
    def test_refine_point_matches_reference(self, seed):
        m, n = 2 + seed % 3, 2 + seed % 5
        rng = search._rng_for(seed, 7)
        coeffs = search._sample_coeffs(rng, m)
        point = tuple(search._sample_entry(rng) for _ in range(n))
        state = rng.getstate()
        refined = search._refine_point(rng, point, coeffs)
        after = rng.getstate()
        rng.setstate(state)
        assert refined == reference_refine_point(rng, point, coeffs)
        assert after == rng.getstate()


class TestEmpiricalTheta:
    def test_four_one_respects_certificate(self):
        summary = empirical_theta(4, 1, samples=250, seed=5)
        assert summary.min_ratio is not None
        assert summary.min_ratio >= theta_for(4, 1)
        assert summary.argmin is not None
        assert summary.argmin.context == "ThetaRatio"

    def test_three_one_respects_half(self):
        summary = empirical_theta(3, 1, samples=250, seed=5)
        assert summary.min_ratio >= F(1, 2)

    def test_argmin_ratio_recomputes(self):
        summary = empirical_theta(5, 2, samples=120, seed=8)
        witness = summary.argmin
        s = __import__("symcert.core", fromlist=["sigma_all"]).sigma_all(witness.x).sigma_at
        a, k = witness.alpha, witness.k
        denominator = a * s(k) + s(k + 1)
        ratio = 1 - (a * s(k - 1) + s(k)) * (a * s(k + 1) + s(k + 2)) / denominator**2
        assert ratio == summary.min_ratio == witness.gap

    def test_deterministic(self):
        first = empirical_theta(4, 2, samples=100, seed=13)
        second = empirical_theta(4, 2, samples=100, seed=13)
        assert first == second

    def test_input_validation(self):
        with pytest.raises(ValueError):
            empirical_theta(4, 1, samples=0, seed=0)
        with pytest.raises(ValueError):
            empirical_theta(4, 4, samples=10, seed=0)

    def test_undercut_fails_loudly(self, monkeypatch):
        # force an impossible bound so the first observed ratio trips the guard
        import symcert.search as search_module

        monkeypatch.setattr(search_module, "theta_for", lambda n, k: F(10))
        with pytest.raises(CertificateViolation):
            empirical_theta(4, 1, samples=30, seed=1)


class TestStructuredScan:
    def test_one_hot_never_negative(self):
        report = structured_scan("one-hot", 3)
        assert report.negative == 0
        assert report.evaluated == report.positive + report.zero

    def test_alternating_finds_published_region(self):
        report = structured_scan("alternating-signs", 3, ScanGrid.of(["4", "1", "1/4"]))
        assert report.negative > 0
        hits = [
            w
            for w in report.witnesses
            if w.x == (F(4), F(4), F(1, 4), F(1, 4)) and w.coeffs == (F(1), F(0), F(1))
        ]
        assert hits and hits[0].gap == F(-825, 1024)

    def test_two_adjacent_never_negative(self):
        # adjacent pairs are exactly the two-term bound, nonnegative everywhere
        report = structured_scan("two-adjacent", 3)
        assert report.negative == 0

    def test_all_ones_tabulates(self):
        report = structured_scan("all-ones", 3)
        grid = ScanGrid()
        expected = len(grid.values) ** 2 * 3  # two-block points of length 4
        assert report.evaluated == expected
        assert report.positive + report.zero + report.negative == expected

    def test_witnesses_reverify(self):
        report = structured_scan("alternating-signs", 3)
        for witness in report.witnesses:
            assert linear_combo_gap(witness.x, witness.coeffs).gap == witness.gap < 0

    def test_deterministic(self):
        assert structured_scan("alternating-signs", 4) == structured_scan(
            "alternating-signs", 4
        )

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            structured_scan("mystery", 3)
