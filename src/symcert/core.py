"""Exact arithmetic core: rational scalars, binomial coefficients,
elementary symmetric functions, and the one JSON serializer.

Every scalar in this package is a ``fractions.Fraction``; nothing here
ever rounds.  Out-of-range symmetric-function indices follow the
convention sigma_j = 0 for j < 0 or j > n (with sigma_0 = 1), which
keeps the edge formulas elsewhere in the package total.
"""

from __future__ import annotations

import json
import math
import re
from collections import namedtuple
from collections.abc import Iterable
from enum import Enum
from fractions import Fraction

RationalLike = Fraction | int | str

# Python's default limit on int string digits: nothing longer prints, and
# a decimal exponent past it is refused before parsing, as Fraction("1e<e>")
# builds 10**|e| exactly (seconds once |e| reaches the millions).
MAX_INT_DIGITS = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\Z")


def as_rational(value: RationalLike) -> Fraction:
    """Convert an int, Fraction, or string to an exact Fraction.

    Strings may be "p/q" fractions or decimal literals; decimals such as
    "0.25" convert exactly (1/4), never through binary floating point.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        exponent = _EXPONENT.search(text)
        if exponent is not None:
            digits = exponent.group(1).replace("_", "").lstrip("0") or "0"
            # lengths first, so a huge digit string is never converted
            if len(digits) > len(str(MAX_INT_DIGITS)) or int(digits) > MAX_INT_DIGITS:
                raise ValueError(
                    f"decimal exponent in {value!r} exceeds {MAX_INT_DIGITS} in magnitude"
                )
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse {value!r} as an exact rational") from exc
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def as_point(entries: Iterable[RationalLike], noun: str = "a point") -> tuple[Fraction, ...]:
    """Normalize rational-likes to an exact tuple, which noun names if empty."""
    point = tuple(as_rational(v) for v in entries)
    if not point:
        raise ValueError(f"{noun} needs at least one entry")
    return point


def as_triple(entries: Iterable[RationalLike]) -> tuple[Fraction, Fraction, Fraction]:
    point = as_point(entries)
    if len(point) != 3:
        raise ValueError(f"expected exactly 3 entries, got {len(point)}")
    return point  # type: ignore[return-value]


def parse_point(text: str, noun: str = "a point") -> tuple[Fraction, ...]:
    """Parse the tuple literal format: a JSON array of strings.

    Example: ["4", "4", "1/4", "0.25"].  Integer JSON numbers are also
    accepted; floats are rejected because they do not round-trip.  noun
    names the tuple in the error for an empty array.
    """
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("tuple literal is nested too deeply") from None
    if not isinstance(data, list):
        raise ValueError("tuple literal must be a JSON array")
    entries = []
    for item in data:
        if isinstance(item, float):
            raise ValueError(
                f"float {item!r} in tuple literal; write it as a string to keep it exact"
            )
        if not isinstance(item, (str, int)):
            raise ValueError(f"bad tuple entry {item!r}")
        entries.append(as_rational(item))
    return as_point(entries, noun)


_JSON_SCALARS = frozenset((int, str, bool, type(None)))


def to_json(value: object) -> object:
    """The JSON form of a value: a Fraction prints as its lossless "p/q"
    string (re-parsed exactly by as_rational), an Enum as its value, a
    tuple or list as a list, a dict keeps its key order, and a result
    object gives its to_json_dict().

    A Fraction with more than 4300 digits (Python's int string limit)
    raises ValueError here, as json.dumps does for such an int; the CLI
    reports either and exits 2.
    """
    # exact types first: an isinstance test against Fraction, a
    # numbers.Rational, runs the ABC machinery for every other value
    kind = type(value)
    if kind is Fraction:
        return str(value)
    if kind in _JSON_SCALARS:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, JsonResult):
        return value.to_json_dict()
    if isinstance(value, (tuple, list)):
        return [to_json(item) for item in value]
    if isinstance(value, dict):
        return {key: to_json(item) for key, item in value.items()}
    return value


class JsonResult:
    """Base of the result records: to_json_dict() serializes the fields
    in declaration order.  A subclass whose JSON keys are not its field
    names renames them through the keyword arguments.

    Every record is an immutable named tuple with no instance dict,
    declared as ``class X(namedtuple("X", "..."), JsonResult)`` with
    ``__slots__ = ()``.  A record is therefore a tuple: it compares equal
    to a plain tuple of the same values (and to a record of another class
    with the same values), it is ordered and iterable, and it unpacks
    into its fields.  to_json tests for JsonResult before tuple, so a
    record serializes as its dict, not as a list."""

    __slots__ = ()

    def to_json_dict(self, **renames: str) -> dict:
        return {renames.get(name, name): to_json(value) for name, value in zip(self._fields, self)}


# The search exceptions live here, so the CLI can catch them without
# importing search.


class CertificateViolation(RuntimeError):
    """An observed ratio fell below the certified theta.

    This would contradict the proved quantitative bound, so the run
    aborts loudly instead of folding the sample into a summary.
    """


class AllSamplesDegenerate(RuntimeError):
    """Every sampled ratio had a vanishing denominator."""


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


class SymProfile(namedtuple("SymProfile", "n sigma")):
    """All sigma_0..sigma_n of one point, with sigma_j = 0 off the ends."""

    __slots__ = ()

    def sigma_at(self, j: int) -> Fraction:
        if j < 0 or j > self.n:
            return Fraction(0)
        return self.sigma[j]

    def e_at(self, j: int) -> Fraction:
        """Symmetric mean E_j = sigma_j / C(n, j), zero off the ends."""
        if j < 0 or j > self.n:
            return Fraction(0)
        return self.sigma[j] / binomial(self.n, j)

    def e_list(self) -> list[Fraction]:
        return [self.e_at(j) for j in range(self.n + 1)]


def over_common_denominator(point: tuple[Fraction, ...]) -> tuple[int, list[int]]:
    """(D, [x_i * D]) with D the lcm of the entries' denominators."""
    scale = math.lcm(*(v.denominator for v in point))
    return scale, [v.numerator * (scale // v.denominator) for v in point]


def _sigma_numerators(ints: list[int]) -> list[int]:
    """S_0..S_n of the integer numerators X_i = x_i * D, by the
    single-pass recurrence S_k += X_i * S_{k-1}, k descending for each
    new element; sigma_k = S_k / D^k."""
    sig = [1] + [0] * len(ints)
    for i, v in enumerate(ints, start=1):
        for k in range(i, 0, -1):
            sig[k] += v * sig[k - 1]
    return sig


def sigma_all(x: Iterable[RationalLike]) -> SymProfile:
    """Evaluate sigma_0..sigma_n on the integer numerators of the point
    over one common denominator D; then sigma_k = S_k / D^k.
    """
    point = as_point(x)
    scale, ints = over_common_denominator(point)
    sig = _sigma_numerators(ints)
    out = []
    den = 1
    for s in sig:
        out.append(Fraction(s, den))
        den *= scale
    return SymProfile(len(point), tuple(out))


def e_all(x: Iterable[RationalLike]) -> list[Fraction]:
    """Elementary symmetric means E_0..E_n (E_k = sigma_k / C(n, k))."""
    return sigma_all(x).e_list()


def garding_membership(x: Iterable[RationalLike], k: int) -> bool:
    """Whether x lies in the cone where sigma_1..sigma_k are all positive."""
    point = as_point(x)
    n = len(point)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    return _in_cone(_sigma_numerators(over_common_denominator(point)[1]), k)


def _in_cone(sig: list[int], k: int) -> bool:
    """Whether sigma_1..sigma_k are all positive, read off S_m = sigma_m * D^m."""
    return all(s > 0 for s in sig[1 : k + 1])
