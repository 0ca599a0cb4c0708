"""Sturm-kernel tests: real-rootedness and root counts on polynomials
whose answer is known by construction, and the primitive-integer chain
against the classical Fraction remainder chain it scales.  MPoly tests:
exact expansion of small identities in 2 and 4 variables."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import horner, nonzero_rationals, rationals
from symcert import polys
from symcert.polys import MPoly

F = Fraction


def multiply(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@st.composite
def constructed(draw):
    """(coefficients, real roots with multiplicity, quadratic kind).

    The linear factors have rational roots, repeats allowed.  The optional
    quadratic (t - c)^2 + q^2 has a nonreal pair; (t - c)^2 - 2 q^2 has
    two irrational roots, so they never meet a linear root."""
    distinct = draw(st.lists(rationals, max_size=5, unique=True))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=3)) if distinct else []
    roots = distinct + repeats
    kind = draw(st.sampled_from([None, "nonreal", "irrational"]))
    poly = [F(1)]
    for r in roots:
        poly = multiply(poly, [-r, F(1)])
    if kind is not None:
        c, q = draw(rationals), draw(nonzero_rationals)
        offset = q * q if kind == "nonreal" else -2 * q * q
        poly = multiply(poly, [c * c + offset, -2 * c, F(1)])
    scale = draw(nonzero_rationals)
    return [scale * a for a in poly], roots, kind


@given(constructed())
def test_verdicts_match_construction(case):
    poly, roots, kind = case
    extra = 2 if kind == "irrational" else 0
    assert polys.is_real_rooted(poly) == (kind != "nonreal")
    assert polys.count_distinct_real_roots(poly) == len(set(roots)) + extra
    assert polys.real_root_count_with_multiplicity(poly) == len(roots) + extra


def classical_chain(p):
    """p, p', then -rem of the last two, over Fraction."""
    chain = [polys.trim(p), polys.trim(polys.derivative(p))]
    while True:
        rem = polys.trim(chain[-2])
        den = chain[-1]
        while len(rem) >= len(den):
            coef = rem[-1] / den[-1]
            shift = len(rem) - len(den)
            for i, d in enumerate(den):
                rem[shift + i] -= coef * d
            rem = polys.trim(rem)
        if not rem:
            return chain
        chain.append([-c for c in rem])


@given(constructed())
def test_chain_entries_are_positive_multiples_of_classical(case):
    poly = case[0]
    chain = polys.sturm_chain(poly)
    if len(chain[0]) < 2:
        return
    reference = classical_chain(poly)
    assert len(chain) == len(reference)
    for entry, classical in zip(chain, reference):
        assert len(entry) == len(classical)
        ratio = F(entry[-1]) / classical[-1]
        assert ratio > 0
        assert [ratio * c for c in classical] == entry


@given(constructed(), rationals)
def test_integer_sign_matches_fraction_evaluation(case, x):
    poly = case[0]
    value = horner(poly, x)
    assert polys.sign_at(polys.primitive_part(poly), x) == (value > 0) - (value < 0)


@pytest.mark.parametrize(
    "poly, real_rooted, distinct, with_multiplicity",
    [
        ([], True, 0, 0),
        ([F(-3)], True, 0, 0),
        ([F(1), F(2)], True, 1, 1),
        ([F(1), F(0), F(1)], False, 0, 0),
        ([F(0), F(0), F(0), F(-5)], True, 1, 3),
        # odd polynomials: each pseudo-division skips a step, so its
        # multiplier is an odd power of the divisor's leading coefficient
        ([F(0), F(-4), F(0), F(-3), F(0), F(1)], False, 3, 3),
        ([F(0), F(0), F(0), F(1), F(0), F(1)], False, 1, 3),
    ],
)
def test_known_cases(poly, real_rooted, distinct, with_multiplicity):
    assert polys.is_real_rooted(poly) == real_rooted
    assert polys.count_distinct_real_roots(poly) == distinct
    assert polys.real_root_count_with_multiplicity(poly) == with_multiplicity


x, y = MPoly.variables(2)


def test_mpoly_square_expands():
    assert not (x + y) ** 2 - (x * x + 2 * x * y + y * y)


def test_mpoly_cancellation_leaves_no_terms():
    assert (x - x).terms == {}


def test_mpoly_difference_of_squares():
    assert ((x - y) * (x + y)).terms == {(2, 0): 1, (0, 2): -1}


def test_mpoly_constants_on_either_side():
    assert (3 * x).terms == (x * 3).terms == (x + x + x).terms
    assert (F(1, 2) * x).terms == (x * F(1, 2)).terms == {(1, 0): F(1, 2)}


@st.composite
def mpolys(draw, arity):
    """Sums of up to four rational multiples of monomials of degree <= 2
    in each variable, built with the operators."""
    variables = MPoly.variables(arity)
    poly = 0 * variables[0]
    for _ in range(draw(st.integers(0, 4))):
        term = draw(rationals)
        for v in variables:
            term = term * v ** draw(st.integers(0, 2))
        poly = poly + term
    return poly


@given(st.sampled_from([2, 4]).flatmap(lambda n: st.tuples(mpolys(n), mpolys(n), mpolys(n))))
def test_mpoly_distributes(triple):
    a, b, c = triple
    assert not a * (b + c) - a * b - a * c
