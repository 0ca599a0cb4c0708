"""Polynomial helpers over exact rationals.

Univariate polynomials are dense coefficient lists, lowest power first.
Real-rootedness is decided by one Sturm chain of primitive integer
polynomials: the input is scaled to a primitive integer polynomial (a
positive multiple of it), each further entry is the primitive part of a
negated pseudo-remainder taken with a positive multiplier, and signs at
a rational p/q come from homogeneous integer Horner evaluation.  Every
entry is therefore a positive multiple of the classical -rem chain
entry, so every sign and sign-change count is the classical one, and
the last entry is gcd(p, p') up to a constant factor.  Floating point
never enters a verdict.  That homogeneous integer Horner,
homogeneous_value, is the package's one polynomial evaluator: it gives
these signs and the Newton steps of reduction's cubic-root polish.
MPoly, a polynomial in any fixed number of variables with arithmetic
operators, expands algebraic identities so that every coefficient can
be matched exactly.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction

Poly = list[Fraction]
IntPoly = list[int]


def trim(p: Sequence[Fraction]) -> Poly:
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return q


def degree(p: Sequence[Fraction]) -> int:
    """Degree, with -1 for the zero polynomial."""
    return len(trim(p)) - 1


def derivative(p: Sequence[Fraction]) -> Poly:
    return [i * c for i, c in enumerate(p)][1:]


def _primitive(p: Sequence[int]) -> IntPoly:
    """p divided by the gcd of its coefficients; p is trimmed and nonzero."""
    content = math.gcd(*p)
    return [c // content for c in p]


def primitive_part(p: Sequence[Fraction]) -> IntPoly:
    """The primitive integer polynomial that is a positive multiple of p
    (rational or integer coefficients); [] for the zero polynomial."""
    # imported on use, so `import symcert.polys` does not load core's imports
    from .core import over_common_denominator

    q = trim(p)
    if not q:
        return []
    return _primitive(over_common_denominator(q)[1])


def _negated_prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive part of -rem(a, b) times a power of |lc(b)|, which keeps
    every division exact and the sign of the classical remainder; []
    when b divides a.  deg a >= deg b >= 1."""
    lead = b[-1]
    if lead < 0:
        b, lead = [-c for c in b], -lead
    r = list(a)
    top = len(b) - 1
    while len(r) > top:
        c = r.pop()
        if c:
            shift = len(r) - top
            # r <- lead r - c x^shift b, whose leading term cancels
            r = [lead * v for v in r[:shift]] + [lead * v - c * w for v, w in zip(r[shift:], b)]
    r = trim(r)
    if not r:
        return []
    content = -math.gcd(*r)
    return [c // content for c in r]


def sturm_chain(p: Sequence[Fraction]) -> list[IntPoly]:
    """Primitive-integer Sturm chain of p, ending at a constant multiple
    of gcd(p, p'); each entry is a positive multiple of the classical one."""
    p0 = primitive_part(p)
    chain = [p0]
    if len(p0) < 2:
        return chain
    chain.append(_primitive(derivative(p0)))
    while len(chain[-1]) > 1:
        r = _negated_prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)
    return chain


def _sign(x: int | Fraction) -> int:
    return (x > 0) - (x < 0)


def homogeneous_value(q: Sequence[int], num: int, den: int) -> int:
    """s^d q(p/s) for the integer polynomial q = c_0 + ... + c_d x^d at
    p = num, s = den: the integer sum of c_i p^i s^(d-i), by Horner."""
    acc = 0
    scale = 1
    for c in reversed(q):
        acc = acc * num + c * scale
        scale *= den
    return acc


def sign_at(q: Sequence[int], x: Fraction) -> int:
    """Sign of the integer polynomial q at x = p/s, which is the sign of
    s^d q(p/s) since s > 0."""
    return _sign(homogeneous_value(q, x.numerator, x.denominator))


def _sign_changes(signs: Sequence[int]) -> int:
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def _distinct_real_roots(chain: Sequence[IntPoly]) -> int:
    """V(-inf) - V(+inf) from the leading coefficients."""
    at_plus = [_sign(q[-1]) for q in chain]
    at_minus = [-s if len(q) % 2 == 0 else s for s, q in zip(at_plus, chain)]
    return _sign_changes(at_minus) - _sign_changes(at_plus)


def sign_changes_at(chain: Sequence[IntPoly], x: Fraction) -> int:
    return _sign_changes([sign_at(q, x) for q in chain])


def count_distinct_real_roots(p: Sequence[Fraction]) -> int:
    chain = sturm_chain(p)
    return _distinct_real_roots(chain) if len(chain[0]) > 1 else 0


def is_real_rooted(p: Sequence[Fraction]) -> bool:
    """Whether every complex root is real; degree < 1 counts vacuously.

    p has deg p - deg gcd(p, p') distinct complex roots, and the chain
    counts its distinct real ones."""
    chain = sturm_chain(p)
    if len(chain[0]) < 2:
        return True
    return _distinct_real_roots(chain) == len(chain[0]) - len(chain[-1])


def real_root_count_with_multiplicity(p: Sequence[Fraction]) -> int:
    """Real roots counted with multiplicity: the distinct real roots of
    p, of gcd(p, p'), of the gcd of that and its derivative, and so on."""
    chain = sturm_chain(p)
    if len(chain[0]) < 2:
        return 0
    return _distinct_real_roots(chain) + real_root_count_with_multiplicity(chain[-1])


# -- multivariate polynomials for exact coefficient matching -------------


class MPoly:
    """A polynomial over the rationals in a fixed number of variables.

    `terms` maps exponent tuples, one entry per variable, to nonzero
    Fraction coefficients.  It supports +, -, * and ** by a nonnegative
    int, with int or Fraction constants on either side; it is truthy
    exactly when it is not the zero polynomial.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: dict[tuple[int, ...], Fraction]) -> None:
        self.arity = arity
        self.terms = terms

    @classmethod
    def variables(cls, count: int) -> tuple[MPoly, ...]:
        """The variables x_0 .. x_{count-1} of the count-variable ring."""
        return tuple(
            cls(count, {tuple(int(i == j) for j in range(count)): Fraction(1)})
            for i in range(count)
        )

    def _lift(self, other: MPoly | int | Fraction) -> MPoly:
        if isinstance(other, MPoly):
            if other.arity != self.arity:
                raise ValueError(f"MPoly arity mismatch: {self.arity} and {other.arity}")
            return other
        if not isinstance(other, (int, Fraction)):
            raise TypeError(f"MPoly combines with int or Fraction, not {type(other).__name__}")
        return self._collect([((0,) * self.arity, Fraction(other))])

    def _collect(self, terms: Iterable[tuple[tuple[int, ...], Fraction]]) -> MPoly:
        """Sum like terms and drop the zero coefficients."""
        out: dict[tuple[int, ...], Fraction] = {}
        for key, coef in terms:
            if key in out:
                out[key] += coef
            else:
                out[key] = coef
        return MPoly(self.arity, {key: coef for key, coef in out.items() if coef})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self) -> MPoly:
        return MPoly(self.arity, {key: -coef for key, coef in self.terms.items()})

    def __add__(self, other: MPoly | int | Fraction) -> MPoly:
        return self._collect([*self.terms.items(), *self._lift(other).terms.items()])

    __radd__ = __add__

    def __sub__(self, other: MPoly | int | Fraction) -> MPoly:
        return self + -self._lift(other)

    def __rsub__(self, other: int | Fraction) -> MPoly:
        return -self + other

    def __mul__(self, other: MPoly | int | Fraction) -> MPoly:
        right = self._lift(other).terms.items()
        return self._collect(
            (tuple(map(operator.add, ka, kb)), ca * cb)
            for ka, ca in self.terms.items()
            for kb, cb in right
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> MPoly:
        if exponent < 0:
            raise ValueError(f"MPoly powers need a nonnegative exponent, got {exponent}")
        if exponent == 0:
            return self._lift(1)
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out
