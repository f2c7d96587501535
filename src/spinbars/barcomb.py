"""Bar-partition combinatorics.

Strict (bar) partitions, their signs, the p-bar core/quotient
correspondence on the two-runner abacus, the relative sign accumulated by
p-bar removals, the doubling map to ordinary partitions, and the ordinary
p-core/p-quotient needed by the doubling test.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index, le, lt

__all__ = [
    "BarPartition", "BarQuotient", "Partition", "bar_core_quotient", "bar_partitions", "delta_bar",
    "doubling", "from_core_quotient", "is_bar_core", "partition_core_quotient", "partitions", "sigma",
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
        m = (p - 1) // 2
        items = sorted(components.items())
        if items and not 1 <= items[0][0] <= items[-1][0] <= m:
            raise ValueError(f"residue pairs run from 1 to {m}, got {sorted(components)}")
        object.__setattr__(self, "lambda0", lambda0)
        object.__setattr__(self, "occupied", tuple((i, c) for i, c in items if c.parts))
        object.__setattr__(self, "p", p)

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


def bar_partitions(n: int) -> list[BarPartition]:
    """All strict partitions of n in lexicographically descending order."""
    if n < 0:
        raise ValueError("n must be non-negative")

    def rec(remaining: int, bound: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        out = []
        for first in range(min(remaining, bound), 0, -1):
            # strictly decreasing, so the tail is bounded by first - 1
            if remaining - first <= (first - 1) * first // 2:
                for tail in rec(remaining - first, first - 1):
                    out.append((first,) + tail)
        return out

    return [BarPartition(t) for t in rec(n, n)]


def partitions(n: int) -> list[Partition]:
    """All ordinary partitions of n in lexicographically descending order."""
    if n < 0:
        raise ValueError("n must be non-negative")

    def rec(remaining: int, cap: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        out = []
        for first in range(min(remaining, cap), 0, -1):
            for tail in rec(remaining - first, first):
                out.append((first,) + tail)
        return out

    return [Partition(t) for t in rec(n, n)]


def sigma(lam: BarPartition) -> int:
    """Sign (-1)**(n - length); +1 on the even-sign class of strict partitions."""
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


def _pair_from_partition(charge: int, mu: Partition) -> tuple[frozenset[int], frozenset[int]]:
    size = mu.length + abs(charge) + 1
    beta = [mu.parts[j] + (size - 1 - j) if j < mu.length else (size - 1 - j) for j in range(size)]
    shift = size - charge
    aset = frozenset(x - shift for x in beta if x >= shift)
    bset = frozenset(shift - 1 - x for x in range(shift) if x not in beta)
    return aset, bset


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
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
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
    quotient = BarQuotient(lambda0, components, p)
    if core.n + p * quotient.weight != lam.n:
        raise RuntimeError(f"core {core} and quotient of weight {quotient.weight} do not rebuild {lam}")
    return core, quotient


def is_bar_core(lam: BarPartition, p: int) -> bool:
    """True when no p-bar can be removed from lam."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return not bar_removals(lam.parts, p)


def from_core_quotient(core: BarPartition, quotient: BarQuotient, p: int) -> BarPartition:
    """Inverse of :func:`bar_core_quotient` on valid (core, quotient) pairs."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if quotient.p != p:
        raise ValueError(f"quotient was built for p={quotient.p}, not {p}")
    if not is_bar_core(core, p):
        raise ValueError(f"{core} admits a removable {p}-bar")
    parts = [p * a for a in quotient.lambda0.parts]
    # a residue pair with no core part and an empty component adds no part
    components = dict(quotient.occupied)
    pairs = {min(a % p, p - a % p) for a in core.parts if a % p}.union(components)
    for i in sorted(pairs):
        charge = sum(1 for a in core.parts if a % p == i) - sum(
            1 for a in core.parts if a % p == p - i
        )
        aset, bset = _pair_from_partition(charge, components.get(i, _EMPTY))
        parts.extend(i + k * p for k in aset)
        parts.extend((p - i) + k * p for k in bset)
    result = BarPartition(tuple(sorted(parts, reverse=True)))
    if result.n != core.n + p * quotient.weight:
        raise RuntimeError(f"{result} does not have the size of core {core} plus weight {quotient.weight}")
    return result


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
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    sign, parts = 1, lam.parts
    while moves := bar_removals(parts, p):
        parts, leg = moves[0]
        sign *= (-1) ** leg
    return sign


def doubling(lam: BarPartition) -> Partition:
    """Ordinary partition of 2n with Frobenius symbol (a_i, a_i - 1) for parts a_i."""
    k = lam.length
    if k == 0:
        return Partition(())
    arms = lam.parts
    legs = tuple(a - 1 for a in lam.parts)
    nrows = legs[0] + 1
    row_lengths = []
    for i in range(nrows):
        # cells left of the diagonal in row i: columns j < i with leg b_j >= i - j
        below = sum(1 for j in range(min(i, k)) if legs[j] >= i - j)
        row_lengths.append((arms[i] + 1 + below) if i < k else below)
    return Partition(tuple(row_lengths))


def partition_core_quotient(mu: Partition, p: int) -> tuple[Partition, tuple[Partition, ...]]:
    """Standard abacus p-core and p-quotient of an ordinary partition.

    The beta-set size is padded to a multiple of p, so the runner labels are
    canonical; component j (1-based) is runner (j + (p-1)//2) mod p, which
    places the runner of the parts congruent to the beta-shift at the middle
    component index (p+1)/2.  Locked by the doubling test.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    size = ((mu.length // p) + 1) * p
    beta = [mu.parts[j] + (size - 1 - j) if j < mu.length else (size - 1 - j) for j in range(size)]
    runners = [sorted(((b - r) // p for b in beta if b % p == r), reverse=True) for r in range(p)]
    comps = []
    core_counts = [len(runner) for runner in runners]
    for runner in runners:
        m = len(runner)
        comps.append(Partition(tuple(x for x in (runner[t] - (m - 1 - t) for t in range(m)) if x > 0)))
    core_beta = sorted(
        (k * p + r for r in range(p) for k in range(core_counts[r])), reverse=True
    )
    core_parts = [core_beta[j] - (size - 1 - j) for j in range(size)]
    core = Partition(tuple(a for a in core_parts if a > 0))
    shift = (p - 1) // 2
    quotient = tuple(comps[(j + shift) % p] for j in range(1, p + 1))
    if core.n + p * sum(c.n for c in quotient) != mu.n:
        raise RuntimeError(f"core {core} and quotient {quotient} do not rebuild {mu}")
    return core, quotient
