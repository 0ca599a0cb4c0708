from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import settings

settings.register_profile("default", deadline=None)
settings.load_profile("default")

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=30)
nonzero_rationals = rationals.filter(lambda q: q != 0)
nonneg_rationals = st.fractions(min_value=0, max_value=10, max_denominator=30)

points = st.lists(rationals, min_size=3, max_size=8).map(tuple)
nonneg_points = st.lists(nonneg_rationals, min_size=2, max_size=8).map(tuple)
triples = st.lists(rationals, min_size=3, max_size=3).map(tuple)


def rand_fraction(rng, span=10, max_denominator=50) -> Fraction:
    den = rng.randint(1, max_denominator)
    return Fraction(rng.randint(-span * den, span * den), den)


def horner(poly, x) -> Fraction:
    """Exact value of the polynomial poly (lowest power first) at x."""
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc
