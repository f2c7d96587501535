"""Exact arithmetic in Q(i, sqrt(d1), sqrt(d2), ...).

A value is a finite Q-linear combination of basis elements sqrt(d) * i^e
with d a squarefree positive integer and e in {0, 1}.  These basis elements
are linearly independent over Q, so equality is coefficient-wise and exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["AlgNum"]


def squarefree_split(m: int) -> tuple[int, int]:
    """m = s**2 * d with d squarefree; returns (s, d).  Requires m >= 1."""
    if m < 1:
        raise ValueError("argument must be a positive integer")
    s, d, f = 1, 1, 2
    while f * f <= m:
        e = 0
        while m % f == 0:
            m //= f
            e += 1
        s *= f ** (e // 2)
        if e % 2:
            d *= f
        f += 1
    return s, d * m


def unit_product(k: tuple[int, int], l: tuple[int, int]) -> tuple[int, tuple[int, int]]:
    """(c, key) with u_k * u_l = c * u_key for the basis units u_(d, e) = sqrt(d) * i^e."""
    (d1, e1), (d2, e2) = k, l
    # d1 and d2 are squarefree, so sqrt(d1)*sqrt(d2) = g*sqrt((d1/g)*(d2/g)) with g = gcd(d1, d2)
    g = gcd(d1, d2)
    return (-g if e1 and e2 else g), ((d1 // g) * (d2 // g), (e1 + e2) % 2)


class AlgNum:
    """Immutable algebraic number; supports +, -, *, conjugation, equality."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        # dict(terms) holds one coefficient per unit: only the zeros are dropped
        terms = dict(terms)
        for (d, e), c in terms.items():
            # exact inputs only: Fraction would round a float and parse a string
            if not (isinstance(d, int) and isinstance(e, int) and isinstance(c, (int, Fraction))):
                raise TypeError(f"{(d, e)!r}: {c!r} is not an int key with an int or Fraction coefficient")
            # any other key would alias a basis unit, and equality is coefficient-wise
            if e not in (0, 1) or d < 1 or squarefree_split(d)[0] != 1:
                raise ValueError(f"unit key {(d, e)} is not sqrt(d) * i^e with d squarefree and e in (0, 1)")
        self._terms = tuple(sorted(((d, e), f) for (d, e), c in terms.items() if (f := Fraction(c))))

    @classmethod
    def from_rational(cls, q) -> AlgNum:
        return cls({(1, 0): q})

    @classmethod
    def sqrt_int(cls, m: int) -> AlgNum:
        """Exact square root of the non-negative integer m."""
        if m == 0:
            return cls()
        s, d = squarefree_split(m)
        return cls({(d, 0): Fraction(s)})

    @classmethod
    def i_power(cls, k: int) -> AlgNum:
        return (cls.from_rational(1), cls({(1, 1): Fraction(1)}),
                cls.from_rational(-1), cls({(1, 1): Fraction(-1)}))[k % 4]

    @property
    def terms(self):
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(k == (1, 0) for k, _ in self._terms)

    def as_rational(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self._terms[0][1]

    def coefficients(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, AlgNum):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == AlgNum.from_rational(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._terms)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms:
            out[k] = out.get(k, Fraction(0)) + c
        return AlgNum(out)

    __radd__ = __add__

    def __neg__(self):
        return AlgNum({k: -c for k, c in self._terms})

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for k1, c1 in self._terms:
            for k2, c2 in other._terms:
                s, k = unit_product(k1, k2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2 * s
        return AlgNum(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * AlgNum.from_rational(Fraction(1, 1) / Fraction(other))
        return NotImplemented

    def conjugate(self) -> AlgNum:
        return AlgNum({(d, e): -c if e else c for (d, e), c in self._terms})

    def __repr__(self):
        if not self._terms:
            return "AlgNum(0)"
        bits = []
        for (d, e), c in self._terms:
            unit = ("" if d == 1 else f"sqrt({d})") + ("i" if e else "")
            bits.append(f"{c}{'*' + unit if unit else ''}")
        return f"AlgNum({' + '.join(bits)})"

    def to_json(self) -> dict:
        """{"re": [[num, den, d], ...], "im": [...]} with terms (num/den)*sqrt(d)."""
        re, im = [], []
        for (d, e), c in self._terms:
            (im if e else re).append([c.numerator, c.denominator, d])
        return {"re": re, "im": im}


ZERO = AlgNum()
ONE = AlgNum.from_rational(1)
I = AlgNum({(1, 1): Fraction(1)})


def _coerce(x):
    if isinstance(x, AlgNum):
        return x
    if isinstance(x, (int, Fraction)):
        return AlgNum.from_rational(x)
    return None
