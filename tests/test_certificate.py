"""Certificate tests: the constants, the zero-residual decomposition
(random points and full coefficient matching), the positivity lemma
scans, and the certified theta table."""

import tracemalloc
from array import array
from fractions import Fraction
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given

import symcert.certificate as certificate
from conftest import points, rationals, triples
from symcert.certificate import (
    CertConstants,
    FScanRow,
    Lemma31Report,
    Lemma32Report,
    _column,
    _f_columns,
    _f_scan_passes,
    _forms,
    _l,
    _scale_free_quad,
    _v,
    _w,
    binom_quad,
    cert_constants,
    decomposition_coefficient_match,
    decomposition_residual,
    f1,
    f2,
    f3,
    f4,
    f_scan,
    is_special_window,
    lemma31_check,
    lemma32_check,
    theta_for,
    window_check,
)
from symcert.core import as_triple, over_common_denominator, sigma_all, to_json
from symcert.gaps import quantitative_gap
from symcert.polys import MPoly

F = Fraction



def windows_up_to(n_max):
    return st.integers(4, n_max).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 2)))


window_pairs = windows_up_to(9)

# denominators up to 10^6, with zeros and negatives
wide_rationals = st.just(F(0)) | st.fractions(
    min_value=-10, max_value=10, max_denominator=10**6
)
wide_triples = st.tuples(wide_rationals, wide_rationals, wide_rationals)
bumps = st.fractions(min_value=-1, max_value=1, max_denominator=10**6).filter(bool)
CONSTANT_NAMES = ["theta1", "theta2", "t", "A1", "A2", "A3"]
FORM_DEGREES = dict(bd=2, ac=2, mixed=4, den=4, tn=3, td=3, theta2=6, A1=6, A2=6, A3=6, combo=12)


def all_windows(n_max):
    return [(n, k) for n in range(4, n_max + 1) for k in range(1, n - 1)]


def chained_constants(a, b, c, d):
    """(theta1, theta2, t, A1, A2, A3) as a chain of Fraction operations,
    each constant built from the previous ones, written out here apart
    from the certificate module's integer forms."""
    den = 6 * a * c**3 + 6 * b**3 * d - 4 * b**2 * c**2
    theta1 = F(3 * (2 * a * c**3 + 2 * b**3 * d - b**2 * c**2 - 3 * a * b * c * d), den)
    theta2 = F(c**2 * (3 * a * c - b**2) ** 2, den)
    t = F(b * (3 * b * d - c**2), c * (3 * a * c - b**2))
    A1 = b**2 * (1 - theta1) - 2 * theta2
    A2 = c**2 * (1 - theta1) - 2 * t**2 * theta2
    A3 = 18 * t * theta2 - 9 * a * d
    return theta1, theta2, t, A1, A2, A3


def lemma31_holds(a, b, c, d):
    mixed = 2 * a * c**3 + 2 * b**3 * d - b**2 * c**2 - 3 * a * b * c * d
    return 3 * b * d - c**2 > 0 and 3 * a * c - b**2 > 0 and mixed > 0


# positive quadruples with a > b^2/(3c) and d > c^2/(3b), so that 3ac > b^2
# and 3bd > c^2, kept when the mixed term is positive too
sizes = st.integers(1, 10**6)
lemma31_quads = (
    st.tuples(sizes, sizes, sizes, sizes)
    .map(lambda q: (q[1] ** 2 // (3 * q[2]) + q[0], q[1], q[2], q[2] ** 2 // (3 * q[1]) + q[3]))
    .filter(lambda q: lemma31_holds(*q))
)


def reference_residual(z, alpha, consts):
    """L - theta1*head^2 - theta2*W - V in Fraction arithmetic, written
    out here apart from the certificate module's helpers."""
    z1, z2, z3 = map(F, z)
    alpha = F(alpha)
    a, b, c, d = consts.quad.a, consts.quad.b, consts.quad.c, consts.quad.d
    s1, s2, s3 = z1 + z2 + z3, z1 * z2 + z1 * z3 + z2 * z3, z1 * z2 * z3
    head = alpha * b * s1 + c * s2
    gap = head**2 - (3 * alpha * a + b * s1) * (alpha * c * s2 + 3 * d * s3)
    t = consts.t
    w = sum(
        (p - q) ** 2 * (alpha + t * r) ** 2 for p, q, r in ((z1, z2, z3), (z1, z3, z2), (z2, z3, z1))
    )
    v = (
        consts.A1 * alpha**2 * (z1**2 + z2**2 + z3**2)
        + consts.A2 * (z1**2 * z2**2 + z1**2 * z3**2 + z2**2 * z3**2)
        + consts.A3 * alpha * s3
    )
    return gap - consts.theta1 * head**2 - consts.theta2 * w - v


def perturbed(n, k, name, bump):
    exact = cert_constants(n, k)
    return exact._replace(**{name: getattr(exact, name) + bump})


def record_of(consts):
    """A window record holding the given constants: patched in for the
    cached record lookup, it feeds them to the residual and the match."""
    quad = consts.quad
    return certificate._Window(consts, _forms(quad.a, quad.b, quad.c, quad.d))


def a_terms(consts):
    return consts.A1, consts.A2, consts.A3


def recomputed(n, k):
    """The constants, both lemma reports and the cleared constants of one
    window, rebuilt here without the record's cache, from binom_quad,
    _forms, Fraction and over_common_denominator."""
    quad = binom_quad(n, k)
    f = _forms(quad.a, quad.b, quad.c, quad.d)
    theta2, A1, A2, A3 = (F(num, f.den) for num in (f.theta2, f.A1, f.A2, f.A3))
    consts = CertConstants(n, k, quad, f.theta1, theta2, F(f.tn, f.td), A1, A2, A3)
    lemma31 = Lemma31Report(n, k, f.bd, f.ac, f.mixed)
    lemma32 = Lemma32Report(n, k, F(f.A1, f.den), F(f.A2, f.den), F(f.combo, 36 * f.den**2))
    tn, tq = consts.t.numerator, consts.t.denominator
    scale, (m1, m2, m3, m4, m5) = over_common_denominator((f.theta1, theta2 / tq**2, A1, A2, A3))
    cleared = certificate._ClearedConstants(scale, m1, m2, tn, tq, m3, m4, m5)
    return consts, lemma31, lemma32, cleared


def recomputed_residual(z, alpha, quad, cleared):
    den, point = over_common_denominator((*z, alpha))
    return F(certificate._residual(*point, quad, cleared), cleared.scale * den**4)


class TestBinomQuad:
    @pytest.mark.parametrize(
        "n,k,expected",
        [
            (4, 1, (1, 4, 6, 4)),
            (5, 2, (5, 10, 10, 5)),
            (4, 2, (4, 6, 4, 1)),
        ],
    )
    def test_consecutive_binomials(self, n, k, expected):
        quad = binom_quad(n, k)
        assert (quad.a, quad.b, quad.c, quad.d) == expected

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 0), (4, 3), (5, 4)])
    def test_range_errors(self, n, k):
        with pytest.raises(ValueError):
            binom_quad(n, k)

    @staticmethod
    def assert_matches_comb(n, k):
        quad = binom_quad(n, k)
        assert (quad.a, quad.b, quad.c, quad.d) == tuple(comb(n, j) for j in range(k - 1, k + 3))

    def test_every_window_to_260_matches_comb(self):
        for n, k in all_windows(260):
            self.assert_matches_comb(n, k)

    @given(windows_up_to(5000))
    def test_matches_comb_to_5000(self, pair):
        self.assert_matches_comb(*pair)


class TestCertConstants:
    def test_four_one(self):
        c = cert_constants(4, 1)
        assert (c.theta1, c.theta2, c.t) == (F(5, 11), F(3, 11), F(4))
        assert (c.A1, c.A2, c.A3) == (F(90, 11), F(120, 11), F(-180, 11))

    def test_five_two(self):
        c = cert_constants(5, 2)
        assert (c.theta1, c.theta2, c.t) == (F(3, 8), F(25, 2), F(1))
        assert c.A3 == 0
        assert c.A1 * c.A2 == F(5625, 4)

    def test_discriminant_combination_four_one(self):
        c = cert_constants(4, 1)
        assert c.A1 * c.A2 - c.A3**2 / 36 == F(900, 11)

    @given(window_pairs)
    def test_window_reflection_symmetry(self, pair):
        n, k = pair
        left = cert_constants(n, k)
        right = cert_constants(n, n - 1 - k)
        assert (left.quad.a, left.quad.b) == (right.quad.d, right.quad.c)
        assert left.theta1 == right.theta1


class TestWValue:
    def test_equal_entries_vanish(self):
        assert _w(1, 1, 1, F(7, 2), F(-5, 3)) == 0

    def test_plain_value(self):
        assert _w(1, 2, 3, 0, 1) == 26

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            _w(*as_triple((1, 2)), 0, 1)

    def test_expanded_form_identity(self):
        # the square form equals its expanded sigma form as polynomials
        z1, z2, z3, a, t = MPoly.variables(5)
        s1, s2, s3 = z1 + z2 + z3, z1 * z2 + z1 * z3 + z2 * z3, z1 * z2 * z3
        expanded = (
            2 * a**2 * (z1**2 + z2**2 + z3**2)
            - 2 * a**2 * s2
            + 2 * a * t * s1 * s2
            + 2 * t**2 * (z1**2 * z2**2 + z1**2 * z3**2 + z2**2 * z3**2)
            - 2 * t**2 * s1 * s3
            - 18 * a * t * s3
        )
        assert not certificate._w(z1, z2, z3, a, t) - expanded

    @given(triples, rationals, rationals)
    def test_nonnegative(self, z, alpha, t):
        assert _w(*z, alpha, t) >= 0


class TestVValue:
    def test_zero_point(self):
        assert _v(0, 0, 0, 5, *a_terms(cert_constants(4, 1))) == 0

    @given(triples)
    def test_alpha_zero_is_square_sum(self, z):
        consts = cert_constants(4, 1)
        z1, z2, z3 = z
        expected = consts.A2 * (z1**2 * z2**2 + z1**2 * z3**2 + z2**2 * z3**2)
        assert _v(*z, 0, *a_terms(consts)) == expected
        assert expected >= 0

    def test_unit_point(self):
        assert _v(1, 1, 1, 1, *a_terms(cert_constants(4, 1))) == F(450, 11)

    @given(triples, rationals, window_pairs)
    def test_nonnegative_in_range(self, z, alpha, pair):
        assert _v(*z, alpha, *a_terms(cert_constants(*pair))) >= 0


class TestLValue:
    def test_alpha_zero_value(self):
        assert _l(1, 2, 3, 0, binom_quad(4, 1)) == 2628

    @given(triples, rationals, window_pairs)
    def test_decomposes_exactly(self, z, alpha, pair):
        n, k = pair
        consts = cert_constants(n, k)
        quad = consts.quad
        s = sigma_all(z).sigma_at
        head = (alpha * quad.b * s(1) + quad.c * s(2)) ** 2
        total = (
            consts.theta1 * head
            + consts.theta2 * _w(*z, alpha, consts.t)
            + _v(*z, alpha, *a_terms(consts))
        )
        assert _l(*z, alpha, quad) == total

    def test_constant_point_drops_square_form(self):
        # all entries equal, so the square form W vanishes
        consts = cert_constants(4, 1)
        z = (F(3, 2),) * 3
        s = sigma_all(z).sigma_at
        alpha = F(7, 5)
        head = (alpha * consts.quad.b * s(1) + consts.quad.c * s(2)) ** 2
        assert _w(*z, alpha, consts.t) == 0
        assert _l(*z, alpha, consts.quad) == consts.theta1 * head + _v(*z, alpha, *a_terms(consts))


class TestDecomposition:
    @given(triples, rationals, window_pairs)
    def test_residual_is_zero(self, z, alpha, pair):
        assert decomposition_residual(z, alpha, *pair) == 0

    def test_residual_zero_at_origin(self):
        assert decomposition_residual((0, 0, 0), F(123, 7), 6, 3) == 0

    @pytest.mark.parametrize("n", range(4, 9))
    def test_coefficient_match(self, n):
        for k in range(1, n - 1):
            assert decomposition_coefficient_match(n, k) is True

    @pytest.mark.parametrize("name", ["theta1", "theta2", "t", "A1", "A2", "A3"])
    def test_perturbed_constant_is_caught(self, monkeypatch, name):
        exact = cert_constants(5, 2)
        bumped = exact._replace(**{name: getattr(exact, name) + F(1, 10**6)})
        monkeypatch.setattr("symcert.certificate._window", lambda n, k: record_of(bumped))
        assert decomposition_coefficient_match(5, 2) is False
        assert decomposition_residual((1, 2, 3), F(1, 3), 5, 2) != 0


class TestIntegerResidual:
    """decomposition_residual runs on integers over one cleared
    denominator; it must equal the plain Fraction residual for any
    constants, not only the ones that make it vanish."""

    @given(wide_triples, wide_rationals, windows_up_to(60))
    def test_matches_fraction_reference(self, z, alpha, pair):
        expected = reference_residual(z, alpha, cert_constants(*pair))
        assert decomposition_residual(z, alpha, *pair) == expected == 0

    @pytest.mark.parametrize("name", CONSTANT_NAMES)
    @given(z=wide_triples, alpha=wide_rationals, pair=windows_up_to(60), bump=bumps)
    def test_matches_fraction_reference_off_the_identity(self, name, z, alpha, pair, bump):
        consts = perturbed(*pair, name, bump)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("symcert.certificate._window", lambda n, k: record_of(consts))
            value = decomposition_residual(z, alpha, *pair)
        assert value == reference_residual(z, alpha, consts)

    @pytest.mark.parametrize("name", CONSTANT_NAMES)
    def test_perturbed_values_are_nonzero(self, monkeypatch, name):
        consts = perturbed(7, 3, name, F(1, 997))
        monkeypatch.setattr("symcert.certificate._window", lambda n, k: record_of(consts))
        z, alpha = (F(2, 3), F(-5, 7), F(11, 13)), F(-3, 17)
        value = decomposition_residual(z, alpha, 7, 3)
        assert value != 0
        assert value == reference_residual(z, alpha, consts)

    @given(wide_triples, wide_rationals, wide_rationals, bumps)
    def test_homogeneous_of_degree_four(self, z, alpha, scale, bump):
        # clearing the point's denominator D divides the value by D^4
        consts = perturbed(9, 4, "A3", bump)
        scaled = tuple(scale * v for v in z)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("symcert.certificate._window", lambda n, k: record_of(consts))
            base = decomposition_residual(z, alpha, 9, 4)
            assert decomposition_residual(scaled, scale * alpha, 9, 4) == scale**4 * base
        assert base == reference_residual(z, alpha, consts)

    def test_no_perturbed_record_stays_cached(self):
        # the perturbation tests above patch the record lookup, never the cache
        z, alpha = (F(2, 3), F(-5, 7), F(11, 13)), F(-3, 17)
        for n, k in [(5, 2), (7, 3), (9, 4)]:
            consts, lemma31, lemma32, cleared = recomputed(n, k)
            assert cert_constants(n, k) == consts
            assert (lemma31_check(n, k), lemma32_check(n, k)) == (lemma31, lemma32)
            assert certificate._window(n, k).cleared == cleared
            assert decomposition_residual(z, alpha, n, k) == 0


class TestWindowRecord:
    """One cached record per window feeds the constants, both lemma checks,
    the residual and the coefficient match."""

    READERS = {
        "cert_constants": cert_constants,
        "lemma31_check": lemma31_check,
        "lemma32_check": lemma32_check,
        "decomposition_residual": lambda n, k: decomposition_residual((1, 2, 3), F(1, 3), n, k),
        "decomposition_coefficient_match": decomposition_coefficient_match,
    }

    def test_readers_equal_the_recomputation_to_120(self):
        z, alpha = (F(2, 3), F(-5, 7), F(11, 13)), F(-3, 17)
        variables = MPoly.variables(4)
        for n, k in all_windows(120):
            consts, lemma31, lemma32, cleared = recomputed(n, k)
            assert cert_constants(n, k) == consts
            assert lemma31_check(n, k) == lemma31
            assert lemma32_check(n, k) == lemma32
            assert certificate._window(n, k).cleared == cleared
            assert decomposition_residual(z, alpha, n, k) == recomputed_residual(
                z, alpha, consts.quad, cleared
            )
            # the symbolic match costs about a millisecond: every window to
            # n = 16, then the edges and the middle of each n
            if n <= 16 or k in (1, n // 2, n - 2):
                expected = not certificate._residual(*variables, consts.quad, cleared)
                assert decomposition_coefficient_match(n, k) is expected is True

    def test_readers_share_one_record(self):
        window = certificate._window(30, 11)
        assert cert_constants(30, 11) is window.constants
        assert (lemma31_check(30, 11), lemma32_check(30, 11)) == window.lemmas
        assert lemma32_check(30, 11) is lemma32_check(30, 11)
        assert lemma32_check(30, 11).A1 is window.constants.A1

    def test_lemmas_and_cleared_are_built_on_first_read(self):
        # the uncached builder: a fresh record has built neither the lemma
        # reports nor the cleared constants
        window = certificate._window.__wrapped__(141, 70)
        quad = window.constants.quad
        assert (window._lemmas, window._cleared) == (None, None)
        f = _forms(quad.a, quad.b, quad.c, quad.d)
        assert window._lemma_forms == (f.bd, f.ac, f.mixed, f.combo, f.den)
        lemmas = window.lemmas
        assert window._lemma_forms is None and window.lemmas is lemmas
        assert window.cleared is window.cleared == recomputed(141, 70)[3]

    @pytest.mark.parametrize("name", READERS)
    def test_out_of_range_raises_and_caches_nothing(self, name):
        before = certificate._window.cache_info()
        for n, k in [(3, 1), (4, 0), (4, 3)]:
            with pytest.raises(ValueError):
                self.READERS[name](n, k)
        after = certificate._window.cache_info()
        assert after.currsize == before.currsize
        assert after.misses == before.misses + 3


class TestLemmaScans:
    def test_lemma31_four_one(self):
        report = lemma31_check(4, 1)
        assert (report.bd_term, report.ac_term, report.mixed_term) == (12, 2, 80)
        assert report.all_positive

    @pytest.mark.parametrize("n,k", [(5, 2), (4, 2), (6, 1), (7, 4)])
    def test_lemma31_positive(self, n, k):
        assert lemma31_check(n, k).all_positive

    def test_lemma32_four_one(self):
        report = lemma32_check(4, 1)
        assert report.discriminant_combo == F(900, 11)
        assert report.all_positive

    def test_lemma32_five_two(self):
        report = lemma32_check(5, 2)
        assert report.discriminant_combo == F(5625, 4)
        assert report.all_positive

    def test_lemma32_six_two(self):
        assert lemma32_check(6, 2).all_positive

    def test_scan_to_24(self):
        for n in range(4, 25):
            for k in range(1, n - 1):
                assert lemma31_check(n, k).all_positive
                assert lemma32_check(n, k).all_positive
                consts = cert_constants(n, k)
                assert 0 < consts.theta1 < 1
                assert consts.theta2 > 0
                quad = consts.quad
                assert quad.b * quad.c < 9 * quad.a * quad.d
                assert window_check(n, k).passed

    @pytest.mark.parametrize(
        "field,value",
        [
            ("lemma31", False),
            ("lemma32", False),
            ("theta1", F(0)),
            ("theta1", F(1)),
            ("f_scan", False),
        ],
    )
    def test_window_check_fails_on_any_check(self, field, value):
        check = window_check(5, 2)._replace(**{field: value})
        assert check.passed is False


class TestForms:
    """Every constant and lemma quantity is one integer form of the
    quadruple; the window checks read the forms' signs at the scale-free
    quadruple, the other checks at the binomials."""

    def test_fields_are_the_degrees(self):
        assert certificate._Forms._fields == tuple(FORM_DEGREES)

    def test_homogeneous_in_the_quadruple(self):
        for n, k in all_windows(60):
            quad = binom_quad(n, k)
            small = _scale_free_quad(n, k)
            scale = F(comb(n, k - 1), k * (k + 1) * (k + 2))
            assert (quad.a, quad.b, quad.c, quad.d) == tuple(scale * v for v in small)
            big = _forms(quad.a, quad.b, quad.c, quad.d)._asdict()
            for name, value in _forms(*small)._asdict().items():
                assert big[name] == scale ** FORM_DEGREES[name] * value, (n, k, name)

    def test_window_check_agrees_with_the_binomial_checks(self):
        for n, k in all_windows(80):
            check = window_check(n, k)
            consts = cert_constants(n, k)
            first, second = lemma31_check(n, k).all_positive, lemma32_check(n, k).all_positive
            assert (check.lemma31, check.lemma32) == (first, second)
            assert check.theta1 == consts.theta1 == theta_for(n, k)
            scan = all(row.all_positive for row in f_scan(n))
            assert check.passed == (
                first and second and 0 < consts.theta1 < 1 and consts.theta2 > 0 and scan
            )

    def test_constants_equal_the_fraction_chain(self):
        for n, k in all_windows(60):
            quad = binom_quad(n, k)
            chained = CertConstants(n, k, quad, *chained_constants(quad.a, quad.b, quad.c, quad.d))
            assert cert_constants(n, k) == chained
            assert cert_constants(n, k).to_json_dict() == chained.to_json_dict()

    @given(lemma31_quads)
    def test_lemma31_makes_theta2_positive_with_theta1(self, quad):
        # 3bd > c^2 and 3ac > b^2 give 9ad > bc, so den = 3 mixed +
        # bc(9ad - bc) > 0: theta1 > 0 holds exactly when theta2 > 0
        # (both do), and window_check need not read theta2
        theta1, theta2 = chained_constants(*quad)[:2]
        assert _forms(*quad).den > 0
        assert theta1 > 0 and theta2 > 0

    def test_window_check_range(self):
        for n, k in [(3, 1), (4, 0), (4, 3)]:
            with pytest.raises(ValueError):
                window_check(n, k)


class TestFScan:
    def test_n4_values(self):
        rows = {row.k: row for row in f_scan(4)}
        assert rows[1].f1 == 3 and rows[2].f1 == 1
        assert rows[1].f2 == 3 and rows[2].f2 == 3
        assert rows[1].f3 == 3 and rows[2].f3 == 3
        assert rows[1].f4 == 3 and rows[2].f4 == 3

    def test_n5_k1(self):
        # direct polynomial evaluation: -2 + 2*(5-2) + (5-3), the 3(n-3) endpoint
        assert f1(5, 1) == 6

    def test_n10_all_positive(self):
        assert all(row.all_positive for row in f_scan(10))

    def test_small_n_rejected(self):
        size = _f_columns.cache_info().currsize
        with pytest.raises(ValueError):
            f_scan(3)
        assert _f_columns.cache_info().currsize == size

    def test_rows_equal_direct_evaluation(self):
        for n in range(4, 401):
            expected = [(k, f1(n, k), f2(n, k), f3(n, k), f4(n, k)) for k in range(1, n - 1)]
            assert f_scan(n) == expected

    def test_row_is_immutable(self):
        row = f_scan(6)[1]
        for field in ("k", "f1", "f2", "f3", "f4"):
            with pytest.raises(AttributeError):
                setattr(row, field, 0)
        with pytest.raises(AttributeError):
            row.extra = 0

    def test_row_is_hashable_and_equals_constructed(self):
        row = f_scan(6)[1]
        built = FScanRow(2, 11, 21, 23, 31)
        assert row == built and hash(row) == hash(built)

    def test_to_json_is_to_json_dict(self):
        for row in f_scan(7):
            assert to_json(row) == row.to_json_dict()

    def test_every_call_returns_new_rows(self):
        first, second = f_scan(9), f_scan(9)
        assert first == second and first is not second
        first[0] = None
        first.pop()
        assert f_scan(9) == second
        assert all(type(row) is FScanRow for row in second)

    def test_passes_agrees_with_the_rows(self):
        for n in range(4, 401):
            assert _f_scan_passes(n) == all(row.all_positive for row in f_scan(n))

    def test_column_stays_exact_past_64_bits(self):
        assert _column([3, -5]) == array("q", [3, -5])
        wide = [1, 2**63, -(2**63) - 1]
        assert list(_column(wide)) == wide

    def test_rows_are_not_retained(self):
        # the columns of n = 4..200 take about 0.7 MB; a cache of their
        # rows would keep about 4.4 MB
        _f_columns.cache_clear()
        tracemalloc.start()
        try:
            for n in range(4, 201):
                f_scan(n)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 1_000_000

    @pytest.mark.parametrize("n", range(4, 31))
    def test_endpoint_identities(self, n):
        assert f1(n, 1) == 3 * (n - 3)
        assert f1(n, n - 2) == n - 3
        assert f2(n, 1) == f2(n, n - 2) == 3 * (n - 3)
        assert f3(n, 1) == f3(n, n - 2) == 3 * (n - 3)
        assert f4(n, 1) == f4(n, n - 2) == 3 * (n - 3)


class TestSpecialCases:
    """The special windows k = 0, k = n-1 and (3, 1) are the quantitative
    gap at theta_for = 1/2."""

    @staticmethod
    def gap(point, alpha, k):
        return quantitative_gap(point, alpha, k, theta_for(len(point), k)).gap

    def test_k0_value(self):
        assert self.gap((1, 2, 3), -1, 0) == F(15, 2)

    def test_k0_degenerate_zero(self):
        assert self.gap((0, 0, 0), 0, 0) == 0

    def test_n3k1_value(self):
        assert self.gap((1, 2, 3), 1, 1) == F(51, 2)

    @given(points, rationals)
    def test_k0_identity(self, point, alpha):
        gap = self.gap(point, alpha, 0)
        assert gap == alpha**2 / 2 + sum(v**2 for v in point) / 2
        assert gap >= 0

    @given(points, rationals)
    def test_kn1_nonnegative(self, point, alpha):
        assert self.gap(point, alpha, len(point) - 1) >= 0

    @given(triples, rationals)
    def test_n3k1_nonnegative(self, point, alpha):
        assert self.gap(point, alpha, 1) >= 0

    def test_n3k1_arity(self):
        # (n, 1) is special only for 3-tuples; longer points take theta1
        assert is_special_window(3, 1)
        assert not is_special_window(4, 1)
        assert theta_for(4, 1) == cert_constants(4, 1).theta1 != F(1, 2)


class TestThetaFor:
    def test_three_one(self):
        assert theta_for(3, 1) == F(1, 2)

    def test_four_one(self):
        assert theta_for(4, 1) == F(5, 11)

    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_endpoints(self, n):
        assert theta_for(n, 0) == F(1, 2)
        assert theta_for(n, n - 1) == F(1, 2)

    def test_equals_binomial_theta1_below_80(self):
        for n in range(4, 80):
            for k in range(1, n - 1):
                assert theta_for(n, k) == cert_constants(n, k).theta1

    @given(windows_up_to(2000))
    def test_equals_binomial_theta1_up_to_2000(self, pair):
        assert theta_for(*pair) == cert_constants(*pair).theta1

    def test_range_errors(self):
        with pytest.raises(ValueError):
            theta_for(2, 0)
        with pytest.raises(ValueError):
            theta_for(4, 4)
