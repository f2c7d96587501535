"""Spin block partition, basic-set labels, local labels, and Brauer counts.

Blocks of spin characters are grouped by the p-bar core of their labels; a
pair of associates always shares the core, so block groups are stable under
the sign twist.  The weight-w local side is handled purely combinatorially,
through tuples of partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .barcomb import (
    BarPartition,
    BarQuotient,
    Partition,
    bar_core_quotient,
    is_bar_core,
    is_odd_prime,
    partitions,
    sigma,
)
from .spinchar import MINUS, PLUS, SELF, SYM, SpinLabel, labels

SIDE_G = "G"
SIDE_H = "H"


@dataclass(frozen=True)
class BlockId:
    """A spin block of the chosen cover: odd prime, core, and weight."""

    group: str
    p: int
    core: BarPartition
    weight: int

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.weight < 0:
            raise ValueError("weight must be non-negative")
        if not is_bar_core(self.core, self.p):
            raise ValueError(f"{self.core} admits a removable {self.p}-bar")

    @property
    def n(self) -> int:
        return self.core.n + self.p * self.weight

    @property
    def sign(self) -> int:
        return sigma(self.core)

    def is_defect_zero(self) -> bool:
        return self.weight == 0

    def __repr__(self):
        return f"Block({self.group}, p={self.p}, core={self.core.parts}, w={self.weight})"


@dataclass(frozen=True)
class LocalLabel:
    """Label of a weight-w local spin character, given by a quotient tuple.

    On the G side a quotient labels a plus/minus pair exactly when its sign
    is -1; on the H side exactly when its sign is +1.
    """

    side: str
    quotient: BarQuotient
    tag: str

    def __post_init__(self):
        if self.side not in (SIDE_G, SIDE_H):
            raise ValueError(f"unknown side {self.side!r}")
        s = self.quotient.sigma()
        want_self = (s == 1) if self.side == SIDE_G else (s == -1)
        if (self.tag == SELF) != want_self:
            raise ValueError(f"tag {self.tag} inconsistent with quotient sign {s} on side {self.side}")

    def __repr__(self):
        mark = {SELF: "", PLUS: "+", MINUS: "-"}[self.tag]
        comps = ",".join(str(c.parts) for c in self.quotient.components)
        return f"<{self.side}:({self.quotient.lambda0.parts};{comps}){mark}>"


def block_of(x: SpinLabel, p: int) -> BlockId:
    """The block containing the labelled character, per the core rule."""
    core, quotient = bar_core_quotient(x.lam, p)
    return BlockId(x.group, p, core, quotient.weight)


@lru_cache(maxsize=16)
def _blocks(group: str, n: int, p: int) -> dict[BlockId, tuple[SpinLabel, ...]]:
    """Block -> members for every label of the cover, both in canonical order."""
    seen: dict[BlockId, list[SpinLabel]] = {}
    for x in labels(group, n):
        seen.setdefault(block_of(x, p), []).append(x)
    return {b: tuple(members) for b, members in seen.items()}


def block_members(block: BlockId) -> tuple[SpinLabel, ...]:
    """All labels of the block, in canonical label order."""
    return _blocks(block.group, block.n, block.p).get(block, ())


def block_partition(group: str, n: int, p: int) -> list[tuple[BlockId, tuple[SpinLabel, ...]]]:
    """Partition of the spin labels of the cover into blocks, canonical order."""
    return list(_blocks(group, n, p).items())


def basic_set(block: BlockId) -> tuple[SpinLabel, ...]:
    """Members of the block whose quotient has empty strict component."""
    out = []
    for x in block_members(block):
        _, quotient = bar_core_quotient(x.lam, block.p)
        if quotient.lambda0.n == 0:
            out.append(x)
    return tuple(out)


# 17 entries measured on counts sym n=25 p=5
@lru_cache(maxsize=1 << 10)
def _tuple_count(w: int, m: int) -> int:
    """Number of m-tuples of partitions with total size w."""
    if w == 0:
        return 1
    if m == 0:
        return 0
    return sum(_tuple_count(w - a, m - 1) * len(partitions(a)) for a in range(w + 1))


def quotient_tuples(w: int, m: int) -> list[tuple[Partition, ...]]:
    """All m-tuples of partitions with total size w, canonical order."""
    if m == 0:
        return [()] if w == 0 else []
    out = []
    for a in range(w, -1, -1):
        for head in partitions(a):
            for tail in quotient_tuples(w - a, m - 1):
                out.append((head,) + tail)
    return out


def local_basic_labels(w: int, p: int, side: str) -> tuple[LocalLabel, ...]:
    """Local labels whose quotient has empty strict component, expanded by side.

    The empty strict component forces the quotient sign (-1)**w, so all the
    returned labels on a given side have the same tag shape.
    """
    if w < 0:
        raise ValueError("w must be non-negative")
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    empty = BarPartition(())
    out = []
    for comps in quotient_tuples(w, (p - 1) // 2):
        q = BarQuotient(empty, comps, p)
        s = q.sigma()
        split = (s == -1) if side == SIDE_G else (s == 1)
        if split:
            out.append(LocalLabel(side, q, PLUS))
            out.append(LocalLabel(side, q, MINUS))
        else:
            out.append(LocalLabel(side, q, SELF))
    return tuple(out)


def brauer_count(block: BlockId) -> int:
    """Number of irreducible Brauer characters in the block.

    Tuple count for the weight, doubled according to the parity/sign/group
    rule; equals the size of the basic set.  The degenerate n = 1
    alternating cover coincides with the symmetric cover and is not doubled.
    """
    w = block.weight
    count = _tuple_count(w, (block.p - 1) // 2)
    s = block.sign
    if block.group == SYM:
        doubled = (w % 2 == 1 and s == 1) or (w % 2 == 0 and s == -1)
    else:
        doubled = (w % 2 == 1 and s == -1) or (w % 2 == 0 and s == 1)
        if block.n == 1:
            doubled = False
    return 2 * count if doubled else count
