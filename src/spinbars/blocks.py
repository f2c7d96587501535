"""Spin block partition, basic-set labels, local labels, and Brauer counts.

Blocks of spin characters are grouped by the p-bar core of their labels; a
pair of associates always shares the core, so block groups are stable under
the sign twist.  The block map splits each label into core and quotient
once and keeps every member's p-bar quotient: ``basic_set`` filters it on
the strict component and ``isometry.iso_I`` reads it for the local labels.
The weight-w local side is handled purely combinatorially, through tuples
of partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

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
        if (self.tag == SELF) == _splits(self.side, self.quotient):
            s = self.quotient.sigma()
            raise ValueError(f"tag {self.tag} inconsistent with quotient sign {s} on side {self.side}")

    def __repr__(self):
        mark = {SELF: "", PLUS: "+", MINUS: "-"}[self.tag]
        comps = ",".join(str(c.parts) for c in self.quotient.components)
        return f"<{self.side}:({self.quotient.lambda0.parts};{comps}){mark}>"


def _splits(side: str, quotient: BarQuotient) -> bool:
    """Whether the quotient labels a plus/minus pair: sign -1 on the G side, +1 on H."""
    return quotient.sigma() == (-1 if side == SIDE_G else 1)


def block_of(x: SpinLabel, p: int) -> BlockId:
    """The block containing the labelled character, per the core rule."""
    core, quotient = bar_core_quotient(x.lam, p)
    return BlockId(x.group, p, core, quotient.weight)


@lru_cache(maxsize=16)
def _blocks(group: str, n: int, p: int) -> dict[BlockId, MappingProxyType[SpinLabel, BarQuotient]]:
    """Block -> {member: p-bar quotient} for every label of the cover, both in canonical order."""
    seen: dict[tuple[BarPartition, int], dict[SpinLabel, BarQuotient]] = {}
    for x in labels(group, n):
        core, quotient = bar_core_quotient(x.lam, p)
        seen.setdefault((core, quotient.weight), {})[x] = quotient
    return {BlockId(group, p, core, w): MappingProxyType(members) for (core, w), members in seen.items()}


def block_quotients(block: BlockId) -> MappingProxyType[SpinLabel, BarQuotient]:
    """Each member of the block mapped to its p-bar quotient, in canonical label order."""
    return _blocks(block.group, block.n, block.p).get(block, MappingProxyType({}))


def block_members(block: BlockId) -> tuple[SpinLabel, ...]:
    """All labels of the block, in canonical label order."""
    return tuple(block_quotients(block))


def block_partition(group: str, n: int, p: int) -> list[tuple[BlockId, tuple[SpinLabel, ...]]]:
    """Partition of the spin labels of the cover into blocks, canonical order."""
    return [(b, tuple(members)) for b, members in _blocks(group, n, p).items()]


def basic_set(block: BlockId) -> tuple[SpinLabel, ...]:
    """Members of the block whose quotient has empty strict component."""
    return tuple(x for x, quotient in block_quotients(block).items() if not quotient.lambda0.parts)


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
        if _splits(side, q):
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
