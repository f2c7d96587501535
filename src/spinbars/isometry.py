"""Signed label bijections, kernel functions, and Broué-condition checks.

The swap isometry exchanges one plus/minus pair inside a block; the block
isometry sends each label to the local label of its quotient with the sign
prescribed by the relative sign and the size of the strict component.
Kernels are finite tables over split-class representatives; composition
weights classes by their sizes.  Kernels are computed on the block's
integer value table over every split class (``zverify.split_table``:
integer coefficients over the units sqrt(d) * i^e, one shared
denominator); AlgNum appears only in the returned kernel table.  Broué's
integrality condition (i) compares integer valuations at p of each entry
and of the centralizer orders; his separation condition (ii) is the
kernel's support, and on a block it is equivalent to the isometry
commuting with restriction to p-regular classes, so ``perfect_check``
reads perfectness off the same kernel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .algnum import ZERO, AlgNum, unit_product
from .barcomb import bar_core_quotient, delta_bar, sigma
from .blocks import SIDE_G, SIDE_H, BlockId, LocalLabel, basic_set, block_members, local_basic_labels
from .spinchar import MINUS, PLUS, SYM, SpinLabel, SplitClass, char_value, split_classes
from .zverify import IntegerTable, ValueMatrix, int_valuation, least_valuation, split_table


class UnsupportedTargetError(ValueError):
    """Raised when an operation needs character values of the local groups."""


@dataclass(frozen=True)
class IsometrySpec:
    """A signed bijection between two label sets."""

    source: tuple
    target: tuple
    mapping: tuple  # triples (source label, target label, sign)

    def __post_init__(self):
        srcs = Counter(s for s, _, _ in self.mapping)
        tgts = Counter(t for _, t, _ in self.mapping)
        if srcs != Counter(self.source) or tgts != Counter(self.target):
            raise ValueError("mapping is not a bijection between source and target")

    def image(self, x):
        for s, t, sign in self.mapping:
            if s == x:
                return t, sign
        raise KeyError(x)

    def inverse(self) -> IsometrySpec:
        return IsometrySpec(self.target, self.source, tuple((t, s, sign) for s, t, sign in self.mapping))

    def compose(self, other: IsometrySpec) -> IsometrySpec:
        """other after self (source of other = target of self)."""
        triples = []
        for s, t, sign in self.mapping:
            t2, sign2 = other.image(t)
            triples.append((s, t2, sign * sign2))
        return IsometrySpec(self.source, other.target, tuple(triples))


def identity_iso(block: BlockId) -> IsometrySpec:
    members = block_members(block)
    return IsometrySpec(members, members, tuple((x, x, 1) for x in members))


def swap_J(block: BlockId, lam) -> IsometrySpec:
    """Involution exchanging the plus/minus pair of lam, fixing everything else."""
    if sigma(lam) != -1:
        raise ValueError(f"{lam} does not label a plus/minus pair of the symmetric cover")
    members = block_members(block)
    plus = SpinLabel(block.group, lam, PLUS)
    minus = SpinLabel(block.group, lam, MINUS)
    if plus not in members or minus not in members:
        raise ValueError(f"the pair for {lam} does not lie in {block}")
    triples = []
    for x in members:
        y = minus if x == plus else plus if x == minus else x
        triples.append((x, y, 1))
    return IsometrySpec(members, members, tuple(triples))


def local_side(block: BlockId) -> str:
    """Side of the weight-w local group matched to the block.

    Symmetric cover: G side for positive block sign, H side otherwise; the
    alternating cover takes the opposite side, which is forced by the tag
    correspondence of the label bijection.
    """
    positive = block.sign == 1
    if block.group == SYM:
        return SIDE_G if positive else SIDE_H
    return SIDE_H if positive else SIDE_G


def iso_I(block: BlockId) -> IsometrySpec:
    """Signed bijection from block labels onto the weight-w local labels."""
    if block.weight == 0:
        raise ValueError("the block isometry is only defined for positive weight")
    side = local_side(block)
    triples = []
    for x in block_members(block):
        _, quotient = bar_core_quotient(x.lam, block.p)
        sign = delta_bar(x.lam, block.p) * (-1) ** quotient.lambda0.n
        triples.append((x, LocalLabel(side, quotient, x.tag), sign))
    targets = tuple(t for _, t, _ in triples)
    return IsometrySpec(tuple(s for s, _, _ in triples), targets, tuple(triples))


def basic_set_transport(block: BlockId) -> bool:
    """Whether the block isometry maps the basic set onto the local basic labels."""
    iso = iso_I(block)
    images = {iso.image(x)[0] for x in basic_set(block)}
    return images == set(local_basic_labels(block.weight, block.p, local_side(block)))


@dataclass(frozen=True)
class Kernel:
    """Two-variable class function attached to an isometry, stored as a table."""

    source_classes: tuple
    target_classes: tuple
    table: tuple  # table[i][j] over source x target classes

    def value(self, x: SplitClass, y: SplitClass) -> AlgNum:
        return self.table[self.source_classes.index(x)][self.target_classes.index(y)]


def split_value_matrix(block: BlockId) -> ValueMatrix:
    """Block values over all split classes, both z-parities."""
    cols = split_classes(block.n, group=block.group)
    rows = block_members(block)
    return ValueMatrix(rows, cols, tuple(tuple(char_value(x, c) for c in cols) for x in rows))


def kernel_of(iso: IsometrySpec, source: IntegerTable, target: IntegerTable) -> Kernel:
    """Kernel table: sum over source labels of sign * conj(value) x image value.

    Computed on the integer tables: each pair of integer columns gives an
    integer sum over the mapping, which the unit product conj(u_k) * u_l
    carries into the entry of the two columns' classes.
    """
    s_rows = dict(zip(source.row_keys, source.rows))
    t_rows = dict(zip(target.row_keys, target.rows))
    left = list(zip(*[[sign * a for a in s_rows[s]] for s, _, sign in iso.mapping]))
    right = list(zip(*[t_rows[t] for _, t, _ in iso.mapping]))
    sums: dict[tuple[int, int], dict] = {}
    for (i, k), col_s in zip(source.columns, left):
        for (j, l), col_t in zip(target.columns, right):
            total = sum(map(mul, col_s, col_t))
            if total:
                c, key = unit_product(k, l)
                if k[1]:  # conj(u_k) = -u_k when u_k carries i
                    c = -c
                cell = sums.setdefault((i, j), {})
                cell[key] = cell.get(key, 0) + c * total
    den = source.den * target.den
    table = [[ZERO] * len(target.classes) for _ in source.classes]
    for (i, j), cell in sums.items():
        table[i][j] = AlgNum({key: Fraction(c, den) for key, c in cell.items()})
    return Kernel(source.classes, target.classes, tuple(map(tuple, table)))


def block_kernel(iso: IsometrySpec, block: BlockId) -> Kernel:
    """Kernel of a self-isometry of a cover block."""
    for _, t, _ in iso.mapping:
        if not isinstance(t, SpinLabel):
            raise UnsupportedTargetError("kernel needs character values on both sides")
    table = split_table(block)
    return kernel_of(iso, table, table)


def compose_kernel(a: Kernel, b: Kernel) -> Kernel:
    """Kernel of the composition, averaging over the middle group's classes."""
    if a.target_classes != b.source_classes:
        raise ValueError("middle class lists do not match")
    table = []
    for i in range(len(a.source_classes)):
        row = []
        for k in range(len(b.target_classes)):
            total = AlgNum()
            for j, y in enumerate(a.target_classes):
                total = total + a.table[i][j] * b.table[j][k] * Fraction(1, y.centralizer_order)
            row.append(total)
        table.append(tuple(row))
    return Kernel(a.source_classes, b.target_classes, tuple(table))


@dataclass(frozen=True)
class BroueReport:
    """Outcome of the two Broué conditions on one kernel."""

    passed: bool
    integrality_failures: tuple  # (x, y) class pairs failing condition (i)
    support_failures: tuple  # (x, y) class pairs failing condition (ii)


def broue_check(kernel: Kernel, p: int) -> BroueReport:
    """Centralizer-divisibility and regular/singular support conditions.

    Condition (i) asks that each entry divided by either class's centralizer
    order be integral at p: the least valuation of the entry's coefficients
    must reach the valuation of both orders.
    """
    v_source = [int_valuation(x.centralizer_order, p) for x in kernel.source_classes]
    v_target = [int_valuation(y.centralizer_order, p) for y in kernel.target_classes]
    regular = [y.is_regular(p) for y in kernel.target_classes]
    bad_i = []
    bad_ii = []
    for i, (x, row) in enumerate(zip(kernel.source_classes, kernel.table)):
        x_regular = x.is_regular(p)
        for j, v in enumerate(row):
            if not v:
                continue  # zero satisfies both conditions; most entries are zero
            y = kernel.target_classes[j]
            if least_valuation(v, p) < max(v_source[i], v_target[j]):
                bad_i.append((x, y))
            if x_regular != regular[j]:
                bad_ii.append((x, y))
    return BroueReport(not bad_i and not bad_ii, tuple(bad_i), tuple(bad_ii))


def perfect_check(iso: IsometrySpec, block: BlockId) -> bool:
    """Whether mapping after restriction equals restriction after mapping.

    Only available for self-isometries of a cover block, where both value
    tables are computable; the isometry acts on class functions through
    orthogonal projection onto the block span, and restriction is to the
    classes regular at the block's prime.  Restriction keeps the block's
    class functions in the block, so by Broué (Astérisque 181-182, 1990)
    the isometry commutes with it exactly when its kernel meets the
    separation condition (ii): no nonzero entry pairs a p-regular class
    with a p-singular one.  The answer is therefore read off the support
    of ``block_kernel``, which raises ``UnsupportedTargetError`` for any
    other isometry.
    """
    return not broue_check(block_kernel(iso, block), block.p).support_failures
