"""Search tests: determinism, exact re-verification of every witness, the
empirical theta bracket, and the structured family scans.

The reference_* functions are plain Fraction versions of the search
kernels (stdlib rationalizer, float(E_j) means, one exact gap per point
and coefficient vector); the integer kernels must match them exactly."""

import math
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from conftest import scan_family_vectors, scan_grid_points, window_float_combo_gap
from symcert import search
from symcert.certificate import theta_for
from symcert.core import sigma_all
from symcert.gaps import linear_combo_gap
from symcert.search import (
    CertificateViolation,
    ScanGrid,
    Witness,
    empirical_theta,
    find_counterexample_15,
    structured_scan,
)

F = Fraction


def reference_rationalize(x):
    return F(x).limit_denominator(10**6)


def reference_sample_entry(rng, negative_rate=0.35):
    magnitude = math.exp(rng.uniform(-3.0, 3.0))
    if rng.random() < negative_rate:
        magnitude = -magnitude
    return reference_rationalize(magnitude)


def reference_sample_coeffs(rng, m):
    while True:
        out = []
        for _ in range(m):
            roll = rng.random()
            if roll < 0.5:
                out.append(F(0))
            elif roll < 0.85:
                out.append(F(rng.choice((1, -1))))
            else:
                out.append(reference_sample_entry(rng))
        if any(out):
            return tuple(out)


def reference_float_combo_gap(point, coeffs):
    """The combination gap on float(E_j) of the exact means."""
    means = [float(v) for v in sigma_all(point).e_list()]
    n = len(point)

    def mean_at(j):
        return means[j] if 0 <= j <= n else 0.0

    cs = [float(c) for c in coeffs]
    mid = sum(c * mean_at(j) for j, c in enumerate(cs, start=1))
    low = sum(c * mean_at(j - 1) for j, c in enumerate(cs, start=1))
    high = sum(c * mean_at(j + 1) for j, c in enumerate(cs, start=1))
    return mid * mid - low * high


def reference_combo_gap(point, coeffs):
    e = sigma_all(point).e_at
    mid = sum((c * e(k) for k, c in enumerate(coeffs, start=1)), F(0))
    low = sum((c * e(k - 1) for k, c in enumerate(coeffs, start=1)), F(0))
    high = sum((c * e(k + 1) for k, c in enumerate(coeffs, start=1)), F(0))
    return mid * mid - low * high


def reference_refine_point(rng, point, coeffs, steps=60):
    """Greedy refinement that rationalizes every coordinate of every
    candidate; _refine_point must return the same point."""
    best = [float(v) for v in point]
    best_gap = reference_float_combo_gap([reference_rationalize(v) for v in best], coeffs)
    current = list(best)
    for _ in range(steps):
        idx = rng.randrange(len(current))
        saved = current[idx]
        current[idx] = saved * math.exp(rng.gauss(0.0, 0.3))
        gap = reference_float_combo_gap([reference_rationalize(v) for v in current], coeffs)
        if gap < best_gap:
            best_gap = gap
            best = list(current)
        else:
            current[idx] = saved
    return tuple(reference_rationalize(v) for v in best)


def reference_find_counterexample_15(m, n, seed, budget):
    anchors = search._anchor_candidates(m, n)
    for iteration in range(budget):
        if iteration < len(anchors):
            coeffs, point = anchors[iteration]
        else:
            rng = search._rng_for(seed, iteration)
            coeffs = reference_sample_coeffs(rng, m)
            point = tuple(reference_sample_entry(rng) for _ in range(n))
            estimate = reference_float_combo_gap(point, coeffs)
            if estimate >= 0:
                scale = abs(estimate) + sum(abs(float(v)) for v in point) + 1.0
                if estimate > 0.02 * scale:
                    continue
                point = reference_refine_point(rng, point, coeffs)
        gap = reference_combo_gap(point, coeffs)
        if gap < 0:
            return Witness(point, coeffs, None, None, gap, "Conjecture15", seed, iteration)
    return None


def reference_empirical_theta(n, k, samples, seed):
    certified = theta_for(n, k)
    skipped = 0
    min_ratio = argmin = None
    for i in range(samples):
        rng = search._rng_for(seed, i)
        alpha = reference_sample_entry(rng, negative_rate=0.5)
        if i % 8 == 7:
            tail = reference_sample_entry(rng)
            jitter = F(rng.randint(-1, 1), 10**4)
            point = (-alpha + jitter,) + (-alpha,) * (n - 2) + (tail,)
        else:
            point = tuple(reference_sample_entry(rng, negative_rate=0.5) for _ in range(n))
        s = sigma_all(point).sigma_at
        p, d, q = (alpha * s(j - 1) + s(j) for j in (k, k + 1, k + 2))
        if d == 0:
            skipped += 1
            continue
        ratio = 1 - p * q / d**2
        assert ratio >= certified
        if min_ratio is None or ratio < min_ratio:
            min_ratio = ratio
            argmin = Witness(point, None, alpha, k, ratio, "ThetaRatio", seed, i)
    return search.ThetaSummary(n, k, samples, skipped, certified, min_ratio, argmin)


def reference_structured_scan(family, n, grid=None):
    grid = grid or ScanGrid()
    counts = {"positive": 0, "zero": 0, "negative": 0}
    witnesses = []
    evaluated = 0
    points = scan_grid_points(n + 1, grid)
    for coeffs in scan_family_vectors(family, n, grid):
        for point in points:
            gap = reference_combo_gap(point, coeffs)
            if gap > 0:
                counts["positive"] += 1
            elif gap == 0:
                counts["zero"] += 1
            else:
                counts["negative"] += 1
                if len(witnesses) < 10:
                    witnesses.append(
                        Witness(point, coeffs, None, None, gap, "Conjecture15", 0, evaluated)
                    )
            evaluated += 1
    return search.ScanReport(
        family, n, evaluated, counts["positive"], counts["zero"], counts["negative"],
        tuple(witnesses),
    )


def _json(result):
    return None if result is None else result.to_json_dict()


class TestRationalize:
    @given(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))
    @example(5e-324)
    @example(-2.2250738585072014e-308)
    @example(1e300)
    @example(-1e300)
    @example(3.0)
    @example(-0.0)
    @example(0.1)
    def test_matches_limit_denominator(self, x):
        result = search._rationalize(x)
        expected = reference_rationalize(x)
        assert (result.numerator, result.denominator) == (expected.numerator, expected.denominator)

    def test_dyadic_fractions_past_the_bound(self):
        # denominator 2^20 > 10^6: every one of these takes the last step
        for m in range(1, 200_001, 2):
            x = m / 2**20
            assert search._rationalize(x) == reference_rationalize(x), m


class TestFloatComboGap:
    @given(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
            min_size=1,
            max_size=12,
        ),
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=100), min_size=1, max_size=6
        ),
    )
    def test_matches_float_of_exact_means(self, point, coeffs):
        result = search._float_combo_gap(tuple(point), tuple(coeffs))
        expected = reference_float_combo_gap(tuple(point), tuple(coeffs))
        assert result == expected

    @given(
        st.lists(
            st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**6),
            min_size=1,
            max_size=12,
        ),
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=10**6),
            min_size=1,
            max_size=16,
        ),
    )
    @example([F(1, 3)], [F(1), F(-2), F(5, 7), F(0), F(1)])
    @example([F(0), F(0)], [F(0), F(1)])
    def test_bit_identical_to_the_window_prefilter(self, point, coeffs):
        # the search goldens read these floats: the sides from gaps._gap_sides
        # must round exactly as mid * mid - low * high did, weights longer
        # than the point included; hex() also tells -0.0 from 0.0
        result = search._float_combo_gap(tuple(point), tuple(coeffs))
        expected = window_float_combo_gap(tuple(point), tuple(coeffs))
        assert result == expected
        assert result.hex() == expected.hex()


class TestMatchesFractionReference:
    @pytest.mark.parametrize(
        "n, k, seed",
        [(3, 1, 0), (3, 1, 4), (5, 0, 1), (5, 4, 2), (6, 2, 3), (8, 3, 5), (12, 0, 6),
         (12, 11, 7)],
    )
    def test_empirical_theta(self, n, k, seed):
        assert _json(empirical_theta(n, k, 48, seed)) == _json(
            reference_empirical_theta(n, k, 48, seed)
        )

    # m = 2 never hits, so those hunts spend their whole budget; (3, 4)
    # hits at the anchor, and the rest hit on a sampled point
    @pytest.mark.parametrize(
        "m, n, seed, budget",
        [(2, 3, 1, 128), (2, 4, 2, 64), (3, 4, 0, 64), (3, 5, 3, 32), (4, 5, 9, 120),
         (5, 3, 4, 40)],
    )
    def test_find_counterexample_15(self, m, n, seed, budget):
        assert _json(find_counterexample_15(m, n, seed, budget)) == _json(
            reference_find_counterexample_15(m, n, seed, budget)
        )

    @pytest.mark.parametrize("family", search.FAMILIES)
    @pytest.mark.parametrize(
        "n, grid",
        [(3, None), (4, ScanGrid.of(["3", "1", "-1/2"])), (1, None), (2, None), (5, None), (6, None)],
    )
    def test_structured_scan(self, family, n, grid):
        assert _json(structured_scan(family, n, grid)) == _json(
            reference_structured_scan(family, n, grid)
        )


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

    @pytest.mark.parametrize("family", search.FAMILIES)
    @pytest.mark.parametrize("grid", [ScanGrid(), ScanGrid.of(["1", "3"])])
    def test_work_estimate_counts_what_the_scan_evaluates(self, family, grid):
        # the closed form the CLI caps on: the scan's evaluations times n + 1 entries
        for n in range(1, 9):
            evaluated = structured_scan(family, n, grid).evaluated
            assert search._scan_work(family, n, grid) == evaluated * (n + 1)

    def test_work_estimate_builds_no_vector(self):
        # 2^64 stands for every larger alternating-signs count, past any cap
        assert search._scan_work("alternating-signs", 10**18, ScanGrid()) == (
            2**64 * 25 * 10**18 * (10**18 + 1)
        )
        assert search._scan_work("mystery", 3, ScanGrid()) == search._scan_work(
            "one-hot", 0, ScanGrid()
        ) == 0


def _peak_bytes_to_first(enumerator, *args):
    """Peak bytes allocated while enumerator(*args) is called and its
    first item read."""
    tracemalloc.start()
    try:
        next(iter(enumerator(*args)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScanStreams:
    # a list of all of them holds 8.29 MB (5,000 points of 201 entries)
    # or 3.54 MB (4,096 vectors of 24 entries) before the first is read
    def test_first_grid_point_before_the_rest(self):
        assert _peak_bytes_to_first(search._grid_points, 201, ScanGrid()) < 256 * 1024

    def test_first_family_vector_before_the_rest(self):
        peak = _peak_bytes_to_first(search._family_vectors, "alternating-signs", 24, ScanGrid())
        assert peak < 256 * 1024
