"""Signed label bijections, kernel functions, and Broué-condition checks.

The swap isometry exchanges one plus/minus pair inside a block; the block
isometry sends each label to the local label of its quotient, on the
block's local side (``blocks.local_side``), with the sign prescribed by the
relative sign and the size of the strict component, and it reads each
quotient from the block map (``blocks.block_quotients``).
Kernels are two-variable class functions over split-class representatives.
A split class x stands for x and zx: mu(zx, y) = mu(x, zy) = -mu(x, y), and
zx has x's centralizer order and p-regularity, so Broué's conditions on x's
cells decide zx's.  Kernels are computed on the block's integer value table
(``zverify.split_table``: twice each value's coefficients over the units
sqrt(d) * i^e), and a ``Kernel`` keeps them that way, and in no other form:
integer cell sums over one denominator (4 for a kernel of two such tables),
nonzero cells only.  Broué's integrality condition (i) compares integer
valuations at p of each stored cell and of the centralizer orders; his
separation condition (ii) is the kernel's support, and on a block it is
equivalent to the isometry commuting with restriction to p-regular classes,
so ``perfect_check`` reads perfectness off the same kernel.  A pair swap's
Broué report is its block's identity report: J_lam = id - delta (x)
conj(delta) with delta = chi+ - chi- negates the one cell (c, c) of the
identity kernel at the split class c of type lam, whose row and column are
otherwise zero, and neither condition sees a sign, so ``swap_reports``
checks the identity kernel once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul
from types import MappingProxyType

from .algnum import unit_product
from .barcomb import delta_bar, require_prime, sigma
from .blocks import (
    BlockId, LocalLabel, basic_set, block_members, block_quotients, local_basic_labels, local_side,
)
from .spinchar import MINUS, PLUS, SELF, SYM, SpinLabel, split_classes
from .zverify import IntegerTable, ValueMatrix, _value_matrix, split_table

__all__ = [
    "IsometrySpec", "Kernel", "UnsupportedTargetError", "basic_set_transport", "block_kernel",
    "broue_check", "identity_iso", "iso_I", "kernel_of", "perfect_check", "swap_J", "swap_reports",
]


class UnsupportedTargetError(ValueError):
    """Raised when an operation needs character values of the local groups."""


@dataclass(frozen=True)
class IsometrySpec:
    """A signed bijection between two label sets: triples (source label, target label, sign)."""

    mapping: tuple

    def __post_init__(self):
        size = len(self.mapping)
        if len({s for s, _, _ in self.mapping}) != size or len({t for _, t, _ in self.mapping}) != size:
            raise ValueError("mapping is not a bijection: a label appears twice as a source or a target")
        # 1.0 and True pass `in (1, -1)`; a 1.0 sign makes float kernel cells, which broue_check refuses late
        if any(type(sign) is not int or sign not in (1, -1) for _, _, sign in self.mapping):
            raise ValueError("every sign of a signed bijection is the int 1 or -1")

    def inverse(self) -> IsometrySpec:
        return IsometrySpec(tuple((t, s, sign) for s, t, sign in self.mapping))

    def compose(self, other: IsometrySpec) -> IsometrySpec:
        """other after self; other's sources must be self's targets."""
        images = {s: (t, sign) for s, t, sign in other.mapping}
        if images.keys() != {t for _, t, _ in self.mapping}:
            raise ValueError("the sources of other are not the targets of self")
        triples = []
        for s, t, sign in self.mapping:
            t2, sign2 = images[t]
            triples.append((s, t2, sign * sign2))
        return IsometrySpec(tuple(triples))


def identity_iso(block: BlockId) -> IsometrySpec:
    return IsometrySpec(tuple((x, x, 1) for x in block_members(block)))


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
    return IsometrySpec(tuple(triples))


def iso_I(block: BlockId) -> IsometrySpec:
    """Signed bijection from block labels onto the weight-w local labels."""
    if block.weight == 0:
        raise ValueError("the block isometry is only defined for positive weight")
    side = local_side(block)
    triples = []
    for x, quotient in block_quotients(block).items():
        sign = delta_bar(x.lam, block.p) * (-1) ** quotient.lambda0.n
        triples.append((x, LocalLabel(side, quotient, x.tag), sign))
    return IsometrySpec(tuple(triples))


def basic_set_transport(iso: IsometrySpec, block: BlockId) -> bool:
    """Whether the isometry (the block's ``iso_I``) maps the basic set onto the local basic labels."""
    basic = set(basic_set(block))
    images = {t for s, t, _ in iso.mapping if s in basic}
    return images == set(local_basic_labels(block.weight, block.p, local_side(block)))


@dataclass(frozen=True)
class Kernel:
    """Two-variable class function attached to an isometry, over source x target classes.

    ``cells`` maps (source index, target index) to the entry's integer
    coefficients {(d, e): c} over the units sqrt(d) * i^e, all over the one
    positive denominator ``den``.  Only nonzero cells are stored, and only
    their nonzero coefficients: the kernel keeps a read-only copy of the
    given cells without their zeros, so equal kernels store the same cells.
    Two kernels are equal when their classes and values are, whatever
    their denominators.
    """

    source_classes: tuple
    target_classes: tuple
    cells: dict
    den: int

    def __post_init__(self):
        if type(self.den) is not int or self.den < 1:
            raise ValueError(f"a kernel's denominator is a positive integer, not {self.den!r}")
        if any(type(c) is not int for cell in self.cells.values() for c in cell.values()):
            raise ValueError("a kernel's coefficients are integers")
        cells = {ij: kept for ij, cell in self.cells.items() if (kept := {key: c for key, c in cell.items() if c})}
        object.__setattr__(self, "cells", MappingProxyType(cells))

    def __eq__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        # a / den == b / other.den exactly when a * other.den == b * den
        return (self.source_classes, self.target_classes) == (other.source_classes, other.target_classes) and (
            {ij: {key: c * other.den for key, c in cell.items()} for ij, cell in self.cells.items()}
            == {ij: {key: c * self.den for key, c in cell.items()} for ij, cell in other.cells.items()}
        )

    def __hash__(self):
        # equal kernels store the same nonzero cells, whatever their denominators
        return hash((self.source_classes, self.target_classes, frozenset(self.cells)))


def split_value_matrix(block: BlockId) -> ValueMatrix:
    """Block values over all split classes."""
    return _value_matrix(block_members(block), split_classes(block.n, group=block.group))


def kernel_of(iso: IsometrySpec, source: IntegerTable, target: IntegerTable) -> Kernel:
    """Kernel: sum over source labels of sign * conj(value) x image value.

    Computed on the integer tables: each pair of integer columns gives an
    integer sum over the mapping, which the unit product conj(u_k) * u_l
    carries into the cell of the two columns' classes.  ValueError when a
    source or target label is not a row of its table.
    """
    s_rows = dict(zip(source.row_keys, source.rows))
    t_rows = dict(zip(target.row_keys, target.rows))
    for side, rows, k in (("source", s_rows, 0), ("target", t_rows, 1)):
        if missing := [triple[k] for triple in iso.mapping if triple[k] not in rows]:
            raise ValueError(f"{side} label {missing[0]} is not a row of the {side} table")
    left = list(zip(*[[sign * a for a in s_rows[s]] for s, _, sign in iso.mapping]))
    right = list(zip(*[t_rows[t] for _, t, _ in iso.mapping]))
    cells: dict[tuple[int, int], dict] = {}
    for (i, k), col_s in zip(source.columns, left):
        for (j, l), col_t in zip(target.columns, right):
            total = sum(map(mul, col_s, col_t))
            if total:
                c, key = unit_product(k, l)
                if k[1]:  # conj(u_k) = -u_k when u_k carries i
                    c = -c
                cell = cells.setdefault((i, j), {})
                cell[key] = cell.get(key, 0) + c * total
    return Kernel(source.classes, target.classes, cells, 4)  # both tables hold twice each value


def block_kernel(iso: IsometrySpec, block: BlockId) -> Kernel:
    """Kernel of a self-isometry of a cover block."""
    for _, t, _ in iso.mapping:
        if not isinstance(t, SpinLabel):
            raise UnsupportedTargetError("kernel needs character values on both sides")
    table = split_table(block)
    return kernel_of(iso, table, table)


@dataclass(frozen=True)
class BroueReport:
    """Outcome of the two Broué conditions on one kernel."""

    integrality_failures: tuple  # (x, y) class pairs failing condition (i)
    support_failures: tuple  # (x, y) class pairs failing condition (ii)

    @property
    def passed(self) -> bool:
        """Both conditions hold."""
        return not self.integrality_failures and not self.support_failures

    @property
    def perfect(self) -> bool:
        """The separation condition (ii) holds: on a block, the isometry is perfect (``perfect_check``)."""
        return not self.support_failures


def int_valuation(m: int, p: int) -> int:
    """Exponent of p in the nonzero integer m."""
    if p < 2 or m == 0:
        raise ValueError(f"no valuation of {m} at {p}: needs p >= 2 and m != 0")
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def broue_check(kernel: Kernel, p: int) -> BroueReport:
    """Centralizer-divisibility (i) and regular/singular support (ii) conditions.

    Condition (i) asks that the entry divided by either class's centralizer
    order be integral at p: the least valuation of its coefficients,
    int_valuation(gcd of the integer coefficients) - int_valuation(den),
    must reach the valuation of both orders.  Condition (ii) asks that no
    nonzero entry pair a p-regular class with a p-singular one.  A zero
    entry meets both, so only the stored cells are visited, in row-major
    order.  Each class's valuation and p-regularity are computed once per
    kernel.
    """
    require_prime(p)
    v_den = int_valuation(kernel.den, p)
    src, tgt = kernel.source_classes, kernel.target_classes
    v_src = [int_valuation(x.centralizer_order, p) for x in src]
    v_tgt = [int_valuation(y.centralizer_order, p) for y in tgt]
    reg_src = [x.is_regular(p) for x in src]
    reg_tgt = [y.is_regular(p) for y in tgt]
    bad_i, bad_ii = [], []
    for i, j in sorted(kernel.cells):
        if int_valuation(gcd(*kernel.cells[i, j].values()), p) - v_den < max(v_src[i], v_tgt[j]):
            bad_i.append((src[i], tgt[j]))
        if reg_src[i] != reg_tgt[j]:
            bad_ii.append((src[i], tgt[j]))
    return BroueReport(tuple(bad_i), tuple(bad_ii))


def swap_reports(block: BlockId) -> dict:
    """The Broué report of every pair swap's kernel, keyed by the pair's parts in descending order.

    Every swap's report is the identity kernel's.  J_lam = id - delta (x)
    conj(delta) with delta = chi+ - chi-, so J_lam's kernel is the identity
    kernel minus conj(delta) x delta, and delta lives on the one split class
    c of type lam.  On c, chi+ and chi- = -chi+ are the only nonzero values
    (``spinchar.half_columns``: sigma(lam) = -1 and lam is not an odd type),
    so the identity kernel's row and column c are zero but for
    (c, c) = 2|chi+(c)|^2, and J_lam turns that cell into its negative.
    Both conditions read a cell only through its valuation and its support,
    so the identity kernel is built and checked once per block.
    """
    if block.group != SYM:
        return {}  # pair swaps are a symmetric-cover construction
    pairs = sorted({x.lam.parts for x in block_members(block) if x.tag != SELF}, reverse=True)
    if not pairs:
        return {}
    return dict.fromkeys(pairs, broue_check(block_kernel(identity_iso(block), block), block.p))


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
    return broue_check(block_kernel(iso, block), block.p).perfect
