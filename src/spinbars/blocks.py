"""Spin block partition, basic-set labels, the local side, and Brauer counts.

Blocks of spin characters are grouped by the p-bar core of their labels; a
pair of associates always shares the core, so block groups are stable under
the sign twist.  The block map splits each label into core and quotient
once and keeps every member's p-bar quotient: ``basic_set`` filters it on
the strict component and ``isometry.iso_I`` reads it for the local labels.
Following Brunat-Gramain, a block of weight w is matched to a weight-w
local group (``local_side``), whose basic labels are the quotients with
empty strict component; ``local_basic_labels`` visits only their occupied
residue pairs, and their number is the block's Brauer count.

One rule gives every tag: a label is a plus/minus pair exactly when its
sign is the pair sign, ``spinchar.pair_sign`` on a cover (-1 on the
symmetric one, +1 on the alternating one, whose n = 1 case is the
symmetric one) and ``PAIR_SIGN`` on a local side (-1 on G, +1 on H).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index
from types import MappingProxyType

from .barcomb import (
    BarPartition,
    BarQuotient,
    bar_core_quotient,
    bar_removals,
    partitions,
    require_bar,
    require_n,
    require_prime,
    sigma,
)
from .spinchar import MARKS, SpinLabel, labels, pair_sign, tags

__all__ = [
    "BlockId", "LocalLabel", "basic_set", "block_members", "block_partition", "brauer_count",
    "local_basic_labels", "local_side",
]

SIDE_G = "G"
SIDE_H = "H"
# the sign of the quotients that label plus/minus pairs on each side
PAIR_SIGN = {SIDE_G: -1, SIDE_H: 1}


@dataclass(frozen=True)
class BlockId:
    """A spin block of the chosen cover: odd prime, core, and weight."""

    group: str
    p: int
    core: BarPartition
    weight: int

    def __post_init__(self):
        require_bar(self.core)  # a Partition with repeated parts would pass as a core with no members
        require_prime(self.p)
        pair_sign(self.group, self.n)  # raises on an unknown group
        # stored as a plain int: True would pass index() and reach the JSON as true
        object.__setattr__(self, "weight", index(self.weight))
        if self.weight < 0:
            raise ValueError("weight must be non-negative")
        if bar_removals(self.core.parts, self.p):  # is_bar_core without testing p a second time
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
    """Label of a weight-w local spin character, given by a quotient tuple; tagged by ``PAIR_SIGN``."""

    side: str
    quotient: BarQuotient
    tag: str

    def __post_init__(self):
        if self.side not in PAIR_SIGN:
            raise ValueError(f"unknown side {self.side!r}")
        s = self.quotient.sigma()
        if self.tag not in tags(s, PAIR_SIGN[self.side]):
            raise ValueError(f"tag {self.tag!r} inconsistent with quotient sign {s} on side {self.side}")

    def __repr__(self):
        comps = ",".join(str(c.parts) for c in self.quotient.components)
        return f"<{self.side}:({self.quotient.lambda0.parts};{comps}){MARKS[self.tag]}>"


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
    return [(b, tuple(members)) for b, members in _blocks(group, require_n(n, 1), require_prime(p)).items()]


def basic_set(block: BlockId) -> tuple[SpinLabel, ...]:
    """Members of the block whose quotient has empty strict component."""
    return tuple(x for x, quotient in block_quotients(block).items() if not quotient.lambda0.parts)


def local_side(block: BlockId) -> str:
    """Side of the weight-w local group matched to the block.

    The side whose pair sign is the cover's pair sign times the block sign.
    A member's sign is the block sign times its quotient's sign, so a member
    is a plus/minus pair exactly when its quotient is one on this side, and
    the label bijection (``isometry.iso_I``) keeps every tag.
    """
    pair = pair_sign(block.group, block.n) * block.sign
    return next(side for side, s in PAIR_SIGN.items() if s == pair)


def local_basic_labels(w: int, p: int, side: str) -> tuple[LocalLabel, ...]:
    """Local labels whose quotient has empty strict component, expanded by side.

    The empty strict component forces the quotient sign (-1)**w, so all the
    returned labels on a given side have the same tag shape.  The order is
    that of the dense (p - 1)/2-tuples of partitions, compared component by
    component, larger size first; only occupied residue pairs are visited,
    so the recursion is at most w deep whatever p is.
    """
    w = require_n(w, 0, "w")
    require_prime(p)
    if side not in PAIR_SIGN:
        raise ValueError(f"unknown side {side!r}")
    m = (p - 1) // 2
    by_size = [partitions(a) for a in range(w + 1)]

    def spreads(total: int, start: int):
        """{pair: partition} over residue pairs start..m with nonempty parts of the given total size."""
        if total == 0:
            yield {}
            return
        # a dense tuple that leaves pair i empty sorts after every one that fills it
        for i in range(start, m + 1):
            for a in range(total, 0, -1):
                for head in by_size[a]:
                    for tail in spreads(total - a, i + 1):
                        yield {i: head, **tail}

    empty = BarPartition(())
    out = []
    for comps in spreads(w, 1):
        q = BarQuotient(empty, comps, p)
        out.extend(LocalLabel(side, q, tag) for tag in tags(q.sigma(), PAIR_SIGN[side]))
    return tuple(out)


def brauer_count(block: BlockId) -> int:
    """Number of irreducible Brauer characters in the block.

    The number of local basic labels on the block's local side, which is
    the size of the basic set.
    """
    return len(local_basic_labels(block.weight, block.p, local_side(block)))
