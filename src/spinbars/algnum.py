"""Exact values in Q(i, sqrt(d1), sqrt(d2), ...).

A value is a finite Q-linear combination of basis elements sqrt(d) * i^e
with d a squarefree positive integer and e in {0, 1}.  These basis elements
are linearly independent over Q, so equality is coefficient-wise and exact.
The library computes on integer tables; ``AlgNum`` carries a value across
the API, and arithmetic on values lives with the test oracles.
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
    """Immutable exact value: a sum of rational multiples of the units sqrt(d) * i^e.

    A value type with no arithmetic: ``spinchar.char_value`` builds it,
    ``zverify.integer_expansion`` reads its ``coefficients``, and two values
    are equal exactly when their coefficients are.
    """

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

    def coefficients(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, AlgNum):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash(self._terms)

    def __repr__(self):
        if not self._terms:
            return "AlgNum(0)"
        bits = []
        for (d, e), c in self._terms:
            unit = ("" if d == 1 else f"sqrt({d})") + ("i" if e else "")
            bits.append(f"{c}{'*' + unit if unit else ''}")
        return f"AlgNum({' + '.join(bits)})"
