"""Spin-character labels, split conjugacy classes, and exact character values.

Covers both the double cover of the symmetric group ("sym") and of the
alternating group ("alt").  Values on odd-type classes come from one dense
column per class type, with one slot per strict partition of n in
``bar_partitions`` order, built by adding bars (the inverse of the
bar-strip recursion) through a move table that every type with the same
largest part and the same rest size shares.  Its sign and 2-power
conventions are locked by tests against a Schur Q-function oracle, the
bar-length degree formula, full row and column orthogonality, the removal
recursion and the same recursion over bit-set dicts.  Values on the remaining
split classes follow the classical closed forms.  ``half_columns`` states
this value rule once, for a list of labels on one class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .algnum import AlgNum, squarefree_split
from .barcomb import BarPartition, _descending, bar_partitions, require_bar, require_n, sigma

__all__ = ["SpinLabel", "SplitClass", "char_value", "labels", "split_classes"]

SYM = "sym"
ALT = "alt"
SELF = "self"
PLUS = "plus"
MINUS = "minus"
MARKS = {SELF: "", PLUS: "+", MINUS: "-"}  # printed after a label's partition


def z_cycle(pi: tuple[int, ...]) -> int:
    """Order of the centralizer in the plain symmetric group of a cycle type."""
    z = 1
    mult: dict[int, int] = {}
    for a in pi:
        mult[a] = mult.get(a, 0) + 1
    for a, m in mult.items():
        z *= a**m * math.factorial(m)
    return z


def is_odd_type(pi: tuple[int, ...]) -> bool:
    return all(a % 2 for a in pi)


def is_strict(pi: tuple[int, ...]) -> bool:
    return all(pi[i] > pi[i + 1] for i in range(len(pi) - 1))


def pair_sign(group: str, n: int) -> int:
    """Sign of the bar partitions of n that label plus/minus pairs of the cover.

    -1 on the symmetric cover, +1 on the alternating one; every other bar
    partition labels one self-associate character.  A_1 = S_1, so the
    alternating cover of n = 1 is the symmetric one.
    """
    if group == SYM or (group == ALT and n == 1):
        return -1
    if group == ALT:
        return 1
    raise ValueError(f"unknown group {group!r}")


def tags(sign: int, pair: int) -> tuple[str, ...]:
    """Tags of the labels of a bar partition or quotient of the given sign, where pairs have sign ``pair``."""
    return (PLUS, MINUS) if sign == pair else (SELF,)


@dataclass(frozen=True)
class SpinLabel:
    """A spin character label: bar partition plus association tag (see ``pair_sign``)."""

    group: str
    lam: BarPartition
    tag: str

    def __post_init__(self):
        require_bar(self.lam)  # a Partition with repeated parts has no slot and no values
        s = sigma(self.lam)
        if self.tag not in tags(s, pair_sign(self.group, self.n)):
            raise ValueError(f"tag {self.tag!r} inconsistent with sigma={s} for {self.lam} in {self.group}")

    @property
    def n(self) -> int:
        return self.lam.n

    @cached_property
    def slot(self) -> int:
        """The position of the bar partition in ``bar_partitions(n)``, its slot in an odd-type column."""
        return _slots(self.n)[_bits(self.lam.parts)]

    def __repr__(self):
        return f"<{self.group}:{self.lam.parts}{MARKS[self.tag]}>"


def labels(group: str, n: int) -> tuple[SpinLabel, ...]:
    """All spin labels of the chosen cover, in canonical order."""
    n = require_n(n, 1)
    pair = pair_sign(group, n)
    return tuple(SpinLabel(group, lam, tag) for lam in bar_partitions(n) for tag in tags(sigma(lam), pair))


@dataclass(frozen=True)
class SplitClass:
    """A class x of the cover on which spin characters live; it stands for zx too.

    Spin characters are odd under the central element z, and zx has x's
    centralizer order and cycle type ``pi``.  ``branch`` distinguishes the two
    alternating-group classes of an all-odd distinct type (0 elsewhere).
    """

    group: str
    pi: tuple[int, ...]
    branch: int
    centralizer_order: int

    @property
    def n(self) -> int:
        return sum(self.pi)

    def is_regular(self, p: int) -> bool:
        return all(a % p for a in self.pi)

    @cached_property
    def odd_type(self) -> bool:
        """Whether every cycle length is odd; read once per column of a value table."""
        return is_odd_type(self.pi)

    @cached_property
    def strict(self) -> bool:
        """Whether the cycle lengths are distinct; read once per column of a value table."""
        return is_strict(self.pi)

    def __repr__(self):
        b = f"#{self.branch}" if self.branch else ""
        return f"[{self.group}:{self.pi}{b}]"


def split_classes(n: int, group: str = SYM) -> tuple[SplitClass, ...]:
    """Split classes of the cover, one per central pair {x, zx}, canonical order."""
    return _split_classes(require_n(n, 1), group)


@lru_cache(maxsize=16)
def _split_classes(n: int, group: str) -> tuple[SplitClass, ...]:
    """The split classes of every split type, types in lexicographically descending order.

    The split types are the odd-part types and the strict types whose sign
    is the cover's pair sign.  A type of both kinds (only on the alternating
    cover of n > 1) is two classes of the alternating group, branches 1 and
    2.  A type's centralizer order is z times its number of classes times
    the cover's order over n!: 2 when the pair sign is -1 (the symmetric
    cover, and A_1 = S_1), else 1.
    """
    pair = pair_sign(group, n)
    paired = {lam.parts for lam in bar_partitions(n) if sigma(lam) == pair}
    order = 2 if pair == -1 else 1
    classes = []
    for pi in sorted(paired.union(_descending(n, n | 1, step=2)), reverse=True):
        branches = (1, 2) if pi in paired and is_odd_type(pi) else (0,)
        classes += (SplitClass(group, pi, b, order * len(branches) * z_cycle(pi)) for b in branches)
    return tuple(classes)


def _bits(parts: tuple[int, ...]) -> int:
    """A strict partition as a bit set: bit a is set for each part a."""
    bits = 0
    for a in parts:
        bits |= 1 << a
    return bits


@lru_cache(maxsize=128)
def _slots(n: int) -> dict[int, int]:
    """{bit set of strict lam: lam's slot}, in slot order; slot i holds the i-th of ``bar_partitions(n)``."""
    return {_bits(parts): i for i, parts in enumerate(_descending(n, n, gap=1))}


# All odd types of n = 50 need 302 tables (7.7 MiB traced), of n = 55 359 and of n = 60 425
@lru_cache(maxsize=512)
def _moves(m: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Every r-bar addition to every strict mu of m: per slot of mu, the flat tuple (slot, c, slot, c, ...).

    Each pair is the slot in m + r of one lam that adds an r-bar to mu, and
    its coefficient c = +-1 or +-2: the inverse of a bar removal grows a
    part b (or 0) of mu to b + r where b + r is no part, with leg the parts
    strictly between b and b + r, or adds a pair (a, r - a) of non-parts,
    with leg a plus the parts strictly between them.  c is (-1)**leg,
    doubled when the addition goes from a pair label (sigma(mu) = -1) to a
    self-associate one; that happens exactly when mu has sigma -1 and the
    bar is not a new part r, since those two moves flip sigma and the new
    part keeps it.  Every odd type whose largest part r sits over a rest of
    size m shares the table.
    """
    slots = _slots(m + r)
    inner = (1 << (r - 1)) - 1  # the r - 1 positions strictly inside an r-bar
    table = []
    for mu in _slots(m):
        w = 2 if (m - mu.bit_count()) % 2 else 1
        adds = []
        # new part r
        if not mu >> r & 1:
            adds += slots[mu | 1 << r], (-1 if (mu >> 1 & inner).bit_count() % 2 else 1)
        # grow part b to b + r
        rest = mu
        while rest:
            low = rest & -rest
            rest ^= low
            if mu & low << r:
                continue
            b = low.bit_length() - 1
            adds += slots[mu ^ low | low << r], (-w if (mu >> (b + 1) & inner).bit_count() % 2 else w)
        # new pair (a, r - a)
        for a in range(1, (r + 1) // 2):
            pair = 1 << a | 1 << (r - a)
            if mu & pair:
                continue
            leg = a + (mu >> (a + 1) & ((1 << (r - 2 * a - 1)) - 1)).bit_count()
            adds += slots[mu | pair], (-w if leg % 2 else w)
        table.append(tuple(adds))
    return tuple(table)


# One column per odd-type class suffix: 311 for the block tables of sym and alt
# n=25 p=11 (0.6 MiB traced), 627 for sym n=35 p=5, 1,564 / 2,711 / 4,571 for
# sym n=40 / 45 / 50 p=7 (21 / 68 / 208 MiB traced), and 2,671 / 4,884 / 8,670
# for the split tables of n=40 / 45 / 50.  Columns are read in order, so a bound
# below the need makes nearly every read miss
@lru_cache(maxsize=1 << 14)
def _odd_column(pi: tuple[int, ...]) -> tuple[int, ...]:
    """The common value of the lam character(s) on odd type pi, for every strict lam of n in slot order.

    Built from the column of pi[1:] by adding a pi[0]-bar to every mu in
    every way (``_moves``): each addition contributes its coefficient times
    mu's value.  An lru_cache bounded at 16,384 columns.
    """
    if not pi:
        return (1,)
    n = sum(pi)
    out = [0] * len(_slots(n))
    for v, adds in zip(_odd_column(pi[1:]), _moves(n - pi[0], pi[0])):
        if v:
            it = iter(adds)
            for slot, c in zip(it, it):
                out[slot] += c * v
    return tuple(out)


def _root_term(m: int, k: int) -> tuple[int, tuple[int, int]]:
    """(c, (d, e)) with i**m * sqrt(k) = c * sqrt(d) * i**e, d squarefree; k >= 1."""
    s, d = squarefree_split(k)
    return (-s if m % 4 >= 2 else s), (d, m % 2)


def half_columns(rows: tuple[SpinLabel, ...], c: SplitClass) -> dict[tuple[int, int], list[int]]:
    """Twice the values of the labelled characters on the class, one integer column per unit.

    Maps each unit (d, e), meaning sqrt(d) * i**e, to the list of integers
    h, one per row, such that row r's value is the sum of h[r]/2 times the
    unit; units that are zero in every row are left out.  Rows and class
    must belong to the same cover and the same n.  On odd-type classes the
    values are read from the class type's column at each row's slot, halved for
    alternating-cover pair constituents; on the class of type lam itself a
    pair also carries the closed form +-i**m * sqrt(d), which the
    alternating cover adds to the odd part.  The value at the central
    translate zx is the negative of this one.
    """
    pi = c.pi
    out: dict[tuple[int, int], list[int]] = {}
    if c.odd_type:
        column = _odd_column(pi)
        if c.group == SYM:
            whole = [2 * column[x.slot] for x in rows]
        else:
            # an alternating-cover pair takes half the sym value: the whole
            # column value, which off the class of type lam must be even
            whole = []
            for x in rows:
                v = column[x.slot]
                if x.tag == SELF:
                    v *= 2
                elif v % 2 and pi != x.lam.parts:
                    raise RuntimeError(f"odd restriction value {v} for {x} at {c}")
                whole.append(v)
        if any(whole):
            out[(1, 0)] = whole
    # remaining sym split types are strict with sigma = -1; only the matching
    # pair is nonzero there, with opposite signs for plus and minus.  An alt
    # self-associate is the restriction of one member of a sym pair (or the
    # degenerate n=1 label) and vanishes off odd types.  An alt pair adds
    # half the difference i**((n-l)/2) * sqrt(prod of parts) on the class of
    # type lam; the plus constituent takes the + sign on the canonical first
    # branch (tie-break convention; verification results are invariant under
    # the swap)
    if c.strict:
        pair = [(r, x.tag) for r, x in enumerate(rows) if x.tag != SELF and x.lam.parts == pi]
        if pair:
            m = c.n - len(pi)
            if c.group == SYM:
                h, unit = _root_term((m + 1) // 2, math.prod(pi) // 2)
                h *= 2
            else:
                h, unit = _root_term(m // 2, math.prod(pi))
            # never cancels: an alt pair's odd part on its own class is +-1,
            # and the closed form shares the unit (1, 0) only with |h| >= 3
            col = out.setdefault(unit, [0] * len(rows))
            for r, tag in pair:
                col[r] += -h if (tag == MINUS) ^ (c.branch == 2) else h
    return out


def char_value(x: SpinLabel, c: SplitClass) -> AlgNum:
    """Exact value of the labelled spin character on the given class."""
    if x.group != c.group:
        raise ValueError(f"label group {x.group} does not match class group {c.group}")
    if x.n != c.n:
        raise ValueError(f"label size {x.n} does not match class size {c.n}")
    return AlgNum({unit: Fraction(col[0], 2) for unit, col in half_columns((x,), c).items()})
