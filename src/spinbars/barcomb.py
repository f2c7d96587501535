"""Bar-partition combinatorics.

Strict (bar) partitions, their signs, the split of a bar partition into
its p-bar core and quotient on the two-runner abacus, and the relative sign
accumulated by p-bar removals.  Each of these takes a ``BarPartition`` and
refuses a plain ``Partition``, whose repeated parts have no p-bar core.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index, le, lt

__all__ = [
    "BarPartition", "BarQuotient", "Partition", "bar_core_quotient", "bar_partitions", "delta_bar", "is_bar_core",
    "partitions", "sigma",
]


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson-Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981

# The ``cores`` command prints all (p - 1)/2 components of every quotient;
# the CLI refuses a larger p there, which keeps each at 2^20 components or fewer.
P_BOUND = 2**21


def is_odd_prime(p: int) -> bool:
    """Whether p is an odd prime, by deterministic Miller-Rabin; ValueError from MR_BOUND up."""
    p = index(p)  # TypeError for a float: 3.0 would pass as a base below
    if p >= MR_BOUND:
        raise ValueError(f"p must be below {MR_BOUND}, where the primality test is exact, got {p}")
    if p < 3 or p % 2 == 0:
        return False
    if p in _MR_BASES:
        return True
    if any(p % a == 0 for a in _MR_BASES):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    """p when it is an odd prime: ValueError for any other int (True included), TypeError for a non-integer."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return p


def require_n(n: int, least: int, name: str = "n") -> int:
    """n as an int of at least ``least`` (0 or 1): ValueError below it, TypeError for a bool or a non-integer.

    A cache keyed by n would take True or 3.0 for the int it equals.
    """
    if isinstance(n, bool):
        raise TypeError(f"{name} must be an int, not a bool")
    n = index(n)
    if n < least:
        raise ValueError(f"{name} must be {'positive' if least else 'non-negative'}")
    return n


@dataclass(frozen=True)
class Partition:
    """Ordinary partition: weakly decreasing positive parts."""

    parts: tuple[int, ...]
    strict = False  # a class constant, not a field: whether the parts must strictly decrease

    def __post_init__(self):
        parts = tuple(map(index, self.parts))  # TypeError for a float part
        object.__setattr__(self, "parts", parts)
        if any(a <= 0 for a in parts):
            raise ValueError(f"parts must be positive: {parts}")
        # a part no larger than (strict) or smaller than (weak) the next one
        if any(map(le if self.strict else lt, parts, parts[1:])):
            raise ValueError(f"parts must be {'strictly' if self.strict else 'weakly'} decreasing: {parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __repr__(self):
        return f"{type(self).__name__}{self.parts}"


class BarPartition(Partition):
    """Bar partition: strictly decreasing positive parts, never equal to a ``Partition``."""

    strict = True


_EMPTY = Partition(())


def require_bar(lam) -> None:
    """TypeError unless lam is a BarPartition: a plain Partition may repeat a part, and then has no p-bar core."""
    if not isinstance(lam, BarPartition):
        raise TypeError(f"expected a BarPartition, not {lam!r}")


@dataclass(frozen=True, init=False)
class BarQuotient:
    """Quotient attached to a bar partition modulo an odd prime p.

    ``lambda0`` collects the parts divisible by p (divided by p, still
    strict); the residue pair {i, p-i}, 1 <= i <= (p-1)/2, carries an
    ordinary partition, ``components[i-1]``.  Only the nonempty ones are
    stored, as ``occupied`` pairs (i, partition) with i ascending, so a
    quotient's size does not grow with p.  The constructor takes a dict
    {i: partition} of some pairs; every pair it leaves out is empty.
    """

    lambda0: BarPartition
    occupied: tuple[tuple[int, Partition], ...]
    p: int

    def __init__(self, lambda0: BarPartition, components: dict, p: int):
        require_bar(lambda0)
        m = (require_prime(p) - 1) // 2
        items = sorted(components.items())
        if items and not 1 <= items[0][0] <= items[-1][0] <= m:
            raise ValueError(f"residue pairs run from 1 to {m}, got {sorted(components)}")
        # a BarPartition component would never equal the Partition bar_core_quotient builds
        if any(type(c) is not Partition for _, c in items):
            raise TypeError(f"quotient components are Partitions, got {components!r}")
        self._fill(lambda0, items, p)

    def _fill(self, lambda0: BarPartition, items: list, p: int) -> BarQuotient:
        """Set the fields from checked parts: (pair, Partition) items sorted by pair, p an odd prime."""
        object.__setattr__(self, "lambda0", lambda0)
        object.__setattr__(self, "occupied", tuple((i, c) for i, c in items if c.parts))
        object.__setattr__(self, "p", p)
        return self

    @property
    def components(self) -> tuple[Partition, ...]:
        """All (p - 1)/2 components, the empty ones included."""
        comps = [_EMPTY] * ((self.p - 1) // 2)
        for i, c in self.occupied:
            comps[i - 1] = c
        return tuple(comps)

    @property
    def weight(self) -> int:
        return self.lambda0.n + sum(c.n for _, c in self.occupied)

    def sigma(self) -> int:
        """(-1)**(weight - length of the strict component)."""
        return -1 if (self.weight - self.lambda0.length) % 2 else 1


def _descending(n: int, cap: int, gap: int = 0, step: int = 1) -> list[tuple[int, ...]]:
    """Partitions of n in lexicographically descending order, as tuples of parts.

    The first part is at most cap, each later part at most the one before
    minus gap (0 or 1: gap 1 gives strict partitions), and every part is
    congruent to cap mod step (step 2 with an odd cap gives odd parts).
    """
    if n == 0:
        return [()]
    out = []
    top = min(n, cap)
    for a in range(top - (top - cap) % step, 0, -step):
        # a strict tail below a sums to at most a(a - 1)/2
        if not gap or n - a <= a * (a - 1) // 2:
            for tail in _descending(n - a, a - gap, gap, step):
                out.append((a,) + tail)
    return out


def bar_partitions(n: int) -> list[BarPartition]:
    """All strict partitions of n in lexicographically descending order."""
    n = require_n(n, 0)
    return [BarPartition(t) for t in _descending(n, n, gap=1)]


def partitions(n: int) -> list[Partition]:
    """All ordinary partitions of n in lexicographically descending order."""
    n = require_n(n, 0)
    return [Partition(t) for t in _descending(n, n)]


def sigma(lam: BarPartition) -> int:
    """Sign (-1)**(n - length); +1 on the even-sign class of strict partitions."""
    require_bar(lam)
    return -1 if (lam.n - lam.length) % 2 else 1


# ---------------------------------------------------------------------------
# Maya-diagram encoding used by the two-runner abacus.
#
# A pair (A, B) of finite subsets of {0, 1, 2, ...} is read as a particle
# configuration on Z: particles at the positions in A, and at every negative
# position -1-b except those with b in B.  The configuration determines a
# charge c = |A| - |B| and an ordinary partition; the correspondence
# (A, B) <-> (charge, partition) is a bijection.
# ---------------------------------------------------------------------------


def _pair_to_partition(aset: frozenset[int], bset: frozenset[int]) -> tuple[int, Partition]:
    charge = len(aset) - len(bset)
    shift = max(bset) + 1 if bset else 1
    beta = sorted(
        [a + shift for a in aset] + [shift - 1 - b for b in range(shift) if b not in bset],
        reverse=True,
    )
    size = len(beta)
    parts = [beta[j] - (size - 1 - j) for j in range(size)]
    return charge, Partition(tuple(a for a in parts if a > 0))


def bar_core_quotient(lam: BarPartition, p: int) -> tuple[BarPartition, BarQuotient]:
    """Split a bar partition into its p-bar core and quotient.

    Runner layout: parts divisible by p are divided by p and form the strict
    quotient component.  For each residue pair {i, p-i} with 1 <= i <= (p-1)/2,
    a part i + k*p puts a particle at position k (the "A" runner) and a part
    (p-i) + k*p puts a hole marker at position k (the "B" runner); the Maya
    bijection above turns the pair into the ordinary component, and the net
    charge leaves the packed residue-class parts that belong to the core.
    Only the pairs that lam's parts occupy are visited: every other pair
    carries the empty partition with charge 0, so neither the work nor the
    quotient grows with p.
    """
    require_bar(lam)
    require_prime(p)
    lambda0 = BarPartition(tuple(sorted((a // p for a in lam.parts if a % p == 0), reverse=True)))
    components = {}
    core_parts = []
    for i in {min(a % p, p - a % p) for a in lam.parts if a % p}:
        aset = frozenset((a - i) // p for a in lam.parts if a % p == i)
        bset = frozenset((a - (p - i)) // p for a in lam.parts if a % p == p - i)
        charge, components[i] = _pair_to_partition(aset, bset)
        if charge > 0:
            core_parts.extend(i + k * p for k in range(charge))
        elif charge < 0:
            core_parts.extend((p - i) + k * p for k in range(-charge))
    core = BarPartition(tuple(sorted(core_parts, reverse=True)))
    # p is checked above: build the quotient without a second primality test
    quotient = object.__new__(BarQuotient)._fill(lambda0, sorted(components.items()), p)
    if core.n + p * quotient.weight != lam.n:
        raise RuntimeError(f"core {core} and quotient of weight {quotient.weight} do not rebuild {lam}")
    return core, quotient


def is_bar_core(lam: BarPartition, p: int) -> bool:
    """True when no p-bar can be removed from lam."""
    require_bar(lam)
    require_prime(p)
    return not bar_removals(lam.parts, p)


# ---------------------------------------------------------------------------
# Bar removals.  An r-bar (r odd) of a strict partition is either a single
# part shortened by r (removed entirely when the part equals r), subject to
# the result staying strict, or a pair of parts summing to r.  The attached
# leg length fixes the sign conventions used by the character recursion and
# the relative sign; both are locked by tests against independent oracles.
# ---------------------------------------------------------------------------


def bar_removals(parts: tuple[int, ...], r: int) -> list[tuple[tuple[int, ...], int]]:
    """All ways to remove an r-bar, as (remaining parts, leg length).

    Leg convention: shortening a part from a to a-r counts the parts lying
    strictly between a-r and a; removing a pair (a, b) with a+b=r counts
    a plus the number of parts strictly between a and b.  Only the parity
    of the leg is ever used.
    """
    out = []
    partset = set(parts)
    for a in parts:
        if a >= r and (a - r == 0 or a - r not in partset):
            rest = tuple(x for x in parts if x != a)
            leg = sum(1 for x in rest if a - r < x < a)
            if a > r:
                rest = tuple(sorted(rest + (a - r,), reverse=True))
            out.append((rest, leg))
        if a < r - a and r - a in partset:
            rest = tuple(x for x in parts if x != a and x != r - a)
            leg = a + sum(1 for x in rest if a < x < r - a)
            out.append((rest, leg))
    return out


def delta_bar(lam: BarPartition, p: int) -> int:
    """Relative sign: parity of the total leg length over a p-bar removal chain.

    Follows one chain, the first removal at each step, down to the p-bar
    core.  Independent of the removal order (a tested invariant); +1 on
    p-bar cores.
    """
    require_bar(lam)
    require_prime(p)
    sign, parts = 1, lam.parts
    while moves := bar_removals(parts, p):
        parts, leg = moves[0]
        sign *= (-1) ** leg
    return sign
