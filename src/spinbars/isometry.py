"""Signed label bijections, kernel functions, and Broué-condition checks.

The swap isometry exchanges one plus/minus pair inside a block; the block
isometry sends each label to the local label of its quotient with the sign
prescribed by the relative sign and the size of the strict component.
Kernels are finite tables over split-class representatives; composition
weights classes by their sizes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .algnum import AlgNum
from .barcomb import bar_core_quotient, delta_bar, sigma
from .blocks import SIDE_G, SIDE_H, BlockId, LocalLabel, basic_set, block_members, local_basic_labels
from .spinchar import MINUS, PLUS, SYM, SpinLabel, SplitClass, char_value, split_classes
from .zverify import ValueMatrix, p_integrality


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


def kernel_of(iso: IsometrySpec, source_values: ValueMatrix, target_values: ValueMatrix) -> Kernel:
    """Kernel table: sum over source labels of sign * conj(value) x image value."""
    terms = [
        ([sign * v.conjugate() for v in source_values.row(s)], target_values.row(t))
        for s, t, sign in iso.mapping
    ]
    table = []
    for i in range(len(source_values.classes)):
        row = []
        for j in range(len(target_values.classes)):
            total = AlgNum()
            for vs, vt in terms:
                total = total + vs[i] * vt[j]
            row.append(total)
        table.append(tuple(row))
    return Kernel(source_values.classes, target_values.classes, tuple(table))


def block_kernel(iso: IsometrySpec, block: BlockId) -> Kernel:
    """Kernel of a self-isometry of a cover block."""
    for _, t, _ in iso.mapping:
        if not isinstance(t, SpinLabel):
            raise UnsupportedTargetError("kernel needs character values on both sides")
    values = split_value_matrix(block)
    return kernel_of(iso, values, values)


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
    """Centralizer-divisibility and regular/singular support conditions."""
    bad_i = []
    bad_ii = []
    for i, x in enumerate(kernel.source_classes):
        for j, y in enumerate(kernel.target_classes):
            v = kernel.table[i][j]
            if not (
                p_integrality(v, p, x.centralizer_order)
                and p_integrality(v, p, y.centralizer_order)
            ):
                bad_i.append((x, y))
            if not v.is_zero() and x.is_regular(p) != y.is_regular(p):
                bad_ii.append((x, y))
    return BroueReport(not bad_i and not bad_ii, tuple(bad_i), tuple(bad_ii))


def perfect_check(iso: IsometrySpec, p: int, block: BlockId) -> bool:
    """Whether mapping after restriction equals restriction after mapping.

    Only available for self-isometries of a cover block, where both value
    tables are computable; the isometry acts on arbitrary class functions
    through orthogonal projection onto the block span.
    """
    for _, t, _ in iso.mapping:
        if not isinstance(t, SpinLabel):
            raise UnsupportedTargetError("perfectness needs character values on both sides")
    values = split_value_matrix(block)
    classes = values.classes
    vec = {x: values.entries[values.row_keys.index(x)] for x in values.row_keys}
    for chi in values.row_keys:
        restricted = tuple(
            v if c.is_regular(p) else AlgNum() for v, c in zip(vec[chi], classes)
        )
        # project the restricted function onto the block, then map
        lhs = [AlgNum()] * len(classes)
        for eta in values.row_keys:
            coeff = AlgNum()
            for v, w, c in zip(restricted, vec[eta], classes):
                coeff = coeff + v * w.conjugate() * Fraction(1, c.centralizer_order)
            img, sign = iso.image(eta)
            if not coeff.is_zero():
                lhs = [acc + sign * coeff * v for acc, v in zip(lhs, vec[img])]
        img, sign = iso.image(chi)
        rhs = [
            sign * v if c.is_regular(p) else AlgNum() for v, c in zip(vec[img], classes)
        ]
        if lhs != rhs:
            return False
    return True
