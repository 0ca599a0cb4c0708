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
never enters a verdict.  A small four-variable polynomial type supports
exact coefficient matching of algebraic identities.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Poly = List[Fraction]
IntPoly = List[int]
MPoly = Dict[Tuple[int, int, int, int], Fraction]


def trim(p: Sequence[Fraction]) -> Poly:
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return q


def degree(p: Sequence[Fraction]) -> int:
    """Degree, with -1 for the zero polynomial."""
    return len(trim(p)) - 1


def evaluate(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def derivative(p: Sequence[Fraction]) -> Poly:
    return [i * c for i, c in enumerate(p)][1:]


def _primitive(p: Sequence[int]) -> IntPoly:
    """p divided by the gcd of its coefficients; p is trimmed and nonzero."""
    content = math.gcd(*p)
    return [c // content for c in p]


def primitive_part(p: Sequence[Fraction]) -> IntPoly:
    """The primitive integer polynomial that is a positive multiple of p
    (rational or integer coefficients); [] for the zero polynomial."""
    q = trim(p)
    if not q:
        return []
    scale = math.lcm(*(c.denominator for c in q))
    return _primitive([c.numerator * (scale // c.denominator) for c in q])


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


def sign_at(q: Sequence[int], x: Fraction) -> int:
    """Sign of the integer polynomial q at x = p/s, from the homogeneous
    sum of c_i p^i s^(d-i), which has the sign of q(x) since s > 0."""
    num, den = x.numerator, x.denominator
    acc = 0
    scale = 1
    for c in reversed(q):
        acc = acc * num + c * scale
        scale *= den
    return _sign(acc)


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


# -- four-variable polynomials for exact coefficient matching -------------
#
# Exponent keys are (z1, z2, z3, alpha); coefficients are Fractions and
# zero coefficients are never stored.


def mp_var(index: int) -> MPoly:
    key = [0, 0, 0, 0]
    key[index] = 1
    return {tuple(key): Fraction(1)}


def mp_add(a: MPoly, b: MPoly) -> MPoly:
    out = dict(a)
    for key, coef in b.items():
        new = out.get(key, Fraction(0)) + coef
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


def mp_neg(a: MPoly) -> MPoly:
    return {key: -coef for key, coef in a.items()}


def mp_sub(a: MPoly, b: MPoly) -> MPoly:
    return mp_add(a, mp_neg(b))


def mp_scale(a: MPoly, c) -> MPoly:
    c = Fraction(c)
    if not c:
        return {}
    return {key: coef * c for key, coef in a.items()}


def mp_mul(a: MPoly, b: MPoly) -> MPoly:
    out: MPoly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2], ka[3] + kb[3])
            new = out.get(key, Fraction(0)) + ca * cb
            if new:
                out[key] = new
            else:
                out.pop(key, None)
    return out


def mp_is_zero(a: MPoly) -> bool:
    return all(coef == 0 for coef in a.values())
