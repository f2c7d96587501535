"""Brute-force oracles, independent of the library's production algorithms.

Everything here recomputes results from definitions: direct bar removal
instead of the two-runner abacus, diagram border strips instead of beta-set
moves, exhaustive searches instead of normal forms.  The slow paths that
the library replaced stay here as references: trial division for
primality, a scan over every label for block members, an integer
expansion with every class x key column, the Z-span decision with a
separate unimodular transform and a k x k coordinate product, the
isometry kernel, its dense AlgNum table, kernel composition and the
perfectness check in AlgNum arithmetic, character inner products over
AlgNum value vectors, and the Broué check coefficient by coefficient in
Fraction arithmetic, the local basic labels from dense tuples of all
(p - 1)/2 components, and the Brauer count as a tuple count doubled by a parity/sign/group rule, the odd-type character
values by the bar-strip removal recursion, the value rule one cell at a
time, and the split classes by a filter over every partition.
``expand_z`` writes a kernel over the library's split classes out over
both central translates of each class, which the library leaves implicit.
``cli_payload`` builds the CLI's whole payload as one tree of dicts, with a
dict per matrix cell (``values_json``, by ``Exact.to_json``), for one
``json.dumps``: the byte oracle of the streamed output.  A block's integer
table from its own rows alone (``integer_table_by_block``) is the oracle of
the library's batches of defect-zero blocks, and the matrix text with one
memoised cell per class and row (``matrix_text_by_cell``) that of the CLI's
constant text for the classes with no unit column.
``Exact`` is the field arithmetic on the library's ``AlgNum`` values, which
carry none: the AlgNum references above compute on values lifted by
``Exact.of``.
The maps that only check what the library computes, and that no command
runs, live here too: the inverse of the p-bar core/quotient split, the
doubling map with the ordinary p-core/p-quotient whose runner labelling
``rebuild_from_ordinary_quotient`` shares, the block of one label
(``block_of``), the sign twist of a label and a character's degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm, prod

from spinbars import cli, spinchar
from spinbars.algnum import AlgNum, squarefree_split, unit_product
from spinbars.barcomb import (
    BarPartition, BarQuotient, Partition, bar_core_quotient, bar_removals, is_bar_core, partitions, require_prime,
)
from spinbars.blocks import SIDE_G, BlockId, LocalLabel
from spinbars.isometry import BroueReport, IsometrySpec, Kernel, split_value_matrix
from spinbars.spinchar import (
    MINUS, PLUS, SELF, SYM, SpinLabel, SplitClass, char_value, half_columns, is_odd_type, is_strict, labels,
    split_classes, z_cycle,
)
from spinbars.zverify import IntegerTable, ValueMatrix


def _exact(x):
    """x as an Exact, or None when it is no exact value."""
    if isinstance(x, Exact):
        return x
    if isinstance(x, AlgNum):
        return Exact(x.coefficients())
    if isinstance(x, (int, Fraction)):
        return Exact.from_rational(x)
    return None


class Exact(AlgNum):
    """An AlgNum with field arithmetic: +, -, *, division by a rational, conjugation.

    An int or a Fraction stands for the rational value, in arithmetic and
    in equality; every result is an Exact.
    """

    __slots__ = ()

    @classmethod
    def of(cls, v) -> Exact:
        """The library's value v (an AlgNum, int or Fraction) with arithmetic."""
        out = _exact(v)
        if out is None:
            raise TypeError(f"{v!r} is not an exact value")
        return out

    @classmethod
    def from_rational(cls, q) -> Exact:
        return cls({(1, 0): q})

    @classmethod
    def sqrt_int(cls, m: int) -> Exact:
        """Exact square root of the non-negative integer m."""
        if m == 0:
            return cls()
        s, d = squarefree_split(m)
        return cls({(d, 0): Fraction(s)})

    @classmethod
    def i_power(cls, k: int) -> Exact:
        return (cls.from_rational(1), cls({(1, 1): 1}), cls.from_rational(-1), cls({(1, 1): -1}))[k % 4]

    @property
    def terms(self):
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(k == (1, 0) for k, _ in self._terms)

    def as_rational(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self._terms[0][1]

    def __eq__(self, other):
        other = _exact(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    __hash__ = AlgNum.__hash__

    def __add__(self, other):
        other = _exact(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms:
            out[k] = out.get(k, Fraction(0)) + c
        return Exact(out)

    __radd__ = __add__

    def __neg__(self):
        return Exact({k: -c for k, c in self._terms})

    def __sub__(self, other):
        other = _exact(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _exact(other)
        if other is None:
            return NotImplemented
        out = {}
        for k1, c1 in self._terms:
            for k2, c2 in other._terms:
                s, k = unit_product(k1, k2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2 * s
        return Exact(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (1 / Fraction(other))
        return NotImplemented

    def conjugate(self) -> Exact:
        return Exact({(d, e): -c if e else c for (d, e), c in self._terms})

    def to_json(self) -> dict:
        """{"re": [[num, den, d], ...], "im": [...]} with terms (num/den)*sqrt(d): the report's value form."""
        re, im = [], []
        for (d, e), c in self._terms:
            (im if e else re).append([c.numerator, c.denominator, d])
        return {"re": re, "im": im}


ZERO = Exact()
ONE = Exact.from_rational(1)
I = Exact({(1, 1): 1})


def value_row(values: ValueMatrix, key) -> tuple[AlgNum, ...]:
    """The row of the label key in a value matrix, by a scan of its row keys."""
    return values.entries[values.row_keys.index(key)]


def image(iso: IsometrySpec, x) -> tuple:
    """(target, sign) of the source label x under a signed bijection, by a scan of its triples."""
    for s, t, sign in iso.mapping:
        if s == x:
            return t, sign
    raise KeyError(x)


def partitions_by_filter(n: int) -> set[tuple[int, ...]]:
    """All partitions of n, as the weakly decreasing ones among the 2**(n - 1) compositions of n."""
    if n == 0:
        return {()}
    out = set()
    for cuts in range(1 << (n - 1)):
        ends = [i for i in range(1, n) if cuts >> (i - 1) & 1] + [n]
        parts = tuple(b - a for a, b in zip([0] + ends, ends))
        if all(a >= b for a, b in zip(parts, parts[1:])):
            out.add(parts)
    return out


def strict_partitions_by_filter(n: int) -> set[tuple[int, ...]]:
    """All partitions of n with distinct parts, filtered from ``partitions_by_filter``."""
    return {t for t in partitions_by_filter(n) if len(set(t)) == len(t)}


def is_odd_prime_by_trial_division(p: int) -> bool:
    """Odd primality by trial division up to sqrt(p)."""
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def direct_bar_moves(parts: tuple[int, ...], p: int) -> list[tuple[int, ...]]:
    """One p-bar removal, straight from the definition."""
    out = []
    ps = set(parts)
    for a in parts:
        if a >= p and (a - p == 0 or a - p not in ps):
            rest = [x for x in parts if x != a]
            if a > p:
                rest.append(a - p)
            out.append(tuple(sorted(rest, reverse=True)))
        if a < p - a and (p - a) in ps:
            out.append(tuple(sorted((x for x in parts if x not in (a, p - a)), reverse=True)))
    return out


def cores_by_removal(parts: tuple[int, ...], p: int) -> set[tuple[int, ...]]:
    """Every core reachable by removing p-bars in all possible orders."""
    moves = direct_bar_moves(parts, p)
    if not moves:
        return {parts}
    out = set()
    for nxt in moves:
        out |= cores_by_removal(nxt, p)
    return out


def _pair_from_partition(charge: int, mu: Partition) -> tuple[frozenset[int], frozenset[int]]:
    size = mu.length + abs(charge) + 1
    beta = [mu.parts[j] + (size - 1 - j) if j < mu.length else (size - 1 - j) for j in range(size)]
    shift = size - charge
    aset = frozenset(x - shift for x in beta if x >= shift)
    bset = frozenset(shift - 1 - x for x in range(shift) if x not in beta)
    return aset, bset


def from_core_quotient(core: BarPartition, quotient: BarQuotient, p: int) -> BarPartition:
    """Inverse of :func:`bar_core_quotient` on valid (core, quotient) pairs."""
    require_prime(p)
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
        aset, bset = _pair_from_partition(charge, components.get(i, Partition(())))
        parts.extend(i + k * p for k in aset)
        parts.extend((p - i) + k * p for k in bset)
    result = BarPartition(tuple(sorted(parts, reverse=True)))
    if result.n != core.n + p * quotient.weight:
        raise RuntimeError(f"{result} does not have the size of core {core} plus weight {quotient.weight}")
    return result


def delta_values_all_orders(parts: tuple[int, ...], p: int, removals) -> set[int]:
    """Accumulated sign over every removal sequence; removals is bar_removals."""
    moves = removals(parts, p)
    if not moves:
        return {1}
    out = set()
    for rest, leg in moves:
        for d in delta_values_all_orders(rest, p, removals):
            out.add((-1) ** leg * d)
    return out


@lru_cache(maxsize=None)
def odd_value_by_removal(parts: tuple[int, ...], pi: tuple[int, ...]) -> int:
    """Common value of the labelled spin character(s) on the class of odd type pi.

    Bar-strip recursion: peel the largest part of pi as a bar of that length;
    each removal contributes (-1)**leg, doubled when it crosses from a
    self-associate label to a pair.
    """
    if not pi:
        return 1 if not parts else 0
    r, rho = pi[0], pi[1:]
    n = sum(parts)
    s_lam = 1 if (n - len(parts)) % 2 == 0 else -1
    total = 0
    for rest, leg in bar_removals(parts, r):
        s_mu = 1 if ((n - r) - len(rest)) % 2 == 0 else -1
        c = -1 if leg % 2 else 1
        if s_lam == 1 and s_mu == -1:
            c *= 2
        total += c * odd_value_by_removal(rest, rho)
    return total


def half_coefficients_by_cell(x, c: SplitClass) -> dict[tuple[int, int], int]:
    """Twice the value of the labelled character on the class, one cell at a time.

    {(d, e): h} with the value the sum of h/2 * sqrt(d) * i**e, zero terms
    left out: the per-cell statement of the value rule that the library
    states once per class column.  The odd-type column is read through the
    module, so a patched ``spinchar._odd_column`` reaches both statements.
    """
    lam, pi = x.lam, c.pi
    odd = c.odd_type
    if x.group == SYM or x.tag == SELF:
        if odd:
            v = spinchar._odd_column(pi).get(x.bits, 0)
            return {(1, 0): 2 * v} if v else {}
        if x.group != SYM or x.tag == SELF or pi != lam.parts:
            return {}
        h, unit = spinchar._root_term((lam.n - lam.length + 1) // 2, prod(pi) // 2)
        return {unit: -2 * h if x.tag == MINUS else 2 * h}
    out = {}
    if odd:
        whole = spinchar._odd_column(pi).get(x.bits, 0)
        if pi != lam.parts and whole % 2:
            raise RuntimeError(f"odd restriction value {whole} for {x} at {c}")
        if whole:
            out[(1, 0)] = whole
    if pi == lam.parts:
        h, unit = spinchar._root_term((lam.n - lam.length) // 2, prod(pi))
        if (x.tag == MINUS) ^ (c.branch == 2):
            h = -h
        h += out.pop(unit, 0)
        if h:
            out[unit] = h
    return out


def epsilon_twist(x: SpinLabel) -> SpinLabel:
    """Tensor with the sign lift: swaps the pair, fixes self-associates."""
    if x.tag == SELF:
        return x
    return SpinLabel(x.group, x.lam, MINUS if x.tag == PLUS else PLUS)


def degree(x: SpinLabel) -> int:
    """Character degree: the value at the identity class, the last split class."""
    return half_columns((x,), split_classes(x.n, group=x.group)[-1])[(1, 0)][0] // 2


def split_class_types_by_filter(group: str, n: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(type, branch, centralizer order) of every split class, by filtering all partitions of n."""
    out = []
    for mu in partitions(n):
        pi = mu.parts
        odd = is_odd_type(pi)
        strict = is_strict(pi)
        if group == SYM:
            # split types: all parts odd, or distinct with an odd number of even parts
            if odd or (strict and (n - len(pi)) % 2 == 1):
                out.append((pi, 0, 2 * z_cycle(pi)))
        else:
            if n == 1:
                out.append((pi, 0, 2))
                continue
            even_parts = sum(1 for a in pi if a % 2 == 0)
            if even_parts % 2:
                continue  # odd permutations, not in the alternating group
            if odd and strict:
                out += [(pi, 1, 2 * z_cycle(pi)), (pi, 2, 2 * z_cycle(pi))]
            elif odd or strict:
                out.append((pi, 0, z_cycle(pi)))
    return out


def _cells(parts: tuple[int, ...]) -> set[tuple[int, int]]:
    return {(i, j) for i, a in enumerate(parts) for j in range(a)}


def is_border_strip(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """Whether outer/inner is connected, non-empty, and avoids 2x2 squares."""
    cells = _cells(outer) - _cells(inner)
    if not cells:
        return False
    for (i, j) in cells:
        if {(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= cells:
            return False
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        i, j = c
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in cells and nb not in seen:
                stack.append(nb)
    return seen == cells


def _subpartitions(outer: tuple[int, ...], size: int) -> list[tuple[int, ...]]:
    def gen(row, rem, cap):
        if row == len(outer):
            if rem == 0:
                yield ()
            return
        lo = max(0, rem - sum(outer[row + 1:]))
        for a in range(min(outer[row], cap, rem), lo - 1, -1):
            for tail in gen(row + 1, rem - a, a):
                yield (a,) + tail

    return [tuple(x for x in t if x) for t in gen(0, size, outer[0] if outer else 0)]


def rim_hook_moves(parts: tuple[int, ...], p: int) -> list[tuple[int, ...]]:
    """All partitions obtained by removing one border strip of size p."""
    n = sum(parts)
    if n < p:
        return []
    return [mu for mu in _subpartitions(parts, n - p) if is_border_strip(parts, mu)]


def core_by_rim_hooks(parts: tuple[int, ...], p: int) -> set[tuple[int, ...]]:
    moves = rim_hook_moves(parts, p)
    if not moves:
        return {parts}
    out = set()
    for nxt in moves:
        out |= core_by_rim_hooks(nxt, p)
    return out


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


def rebuild_from_ordinary_quotient(core: tuple[int, ...], quotient, p: int) -> tuple[int, ...]:
    """Inverse abacus: core plus p quotient components back to the partition.

    Uses the runner labelling of ``partition_core_quotient`` (beta-set size a
    multiple of p, component j on runner (j + (p-1)//2) mod p).
    """
    shift = (p - 1) // 2
    comp_of_runner = {(j + shift) % p: quotient[j - 1] for j in range(1, p + 1)}
    size = ((len(core) // p) + 1) * p
    while True:
        beta = {core[j] + (size - 1 - j) if j < len(core) else (size - 1 - j) for j in range(size)}
        counts = [sum(1 for b in beta if b % p == r) for r in range(p)]
        if all(counts[r] >= len(comp_of_runner[r]) for r in range(p)):
            break
        size += p
    new_beta = []
    for r in range(p):
        comp = comp_of_runner[r]
        m = counts[r]
        positions = [(comp[t] if t < len(comp) else 0) + (m - 1 - t) for t in range(m)]
        new_beta.extend(pos * p + r for pos in positions)
    new_beta.sort(reverse=True)
    parts = [new_beta[j] - (size - 1 - j) for j in range(size)]
    return tuple(a for a in parts if a > 0)


def bounded_combination(rows: list[list[int]], target: list[int], bound: int):
    """Exhaustive search for an integer combination with coefficients in [-bound, bound]."""
    for coeffs in product(range(-bound, bound + 1), repeat=len(rows)):
        if all(
            sum(c * r[j] for c, r in zip(coeffs, rows)) == t for j, t in enumerate(target)
        ):
            return coeffs
    return None


def block_of(x: SpinLabel, p: int) -> BlockId:
    """The block containing the labelled character, per the core rule."""
    core, quotient = bar_core_quotient(x.lam, p)
    return BlockId(x.group, p, core, quotient.weight)


def block_members_by_scan(block) -> tuple:
    """Labels of the block found by testing every label of the cover."""
    return tuple(x for x in labels(block.group, block.n) if block_of(x, block.p) == block)


def quotient_tuples(w: int, m: int) -> list[tuple]:
    """All m-tuples of partitions with total size w, canonical order, one frame per component."""
    if m == 0:
        return [()] if w == 0 else []
    out = []
    for a in range(w, -1, -1):
        for head in partitions(a):
            for tail in quotient_tuples(w - a, m - 1):
                out.append((head,) + tail)
    return out


def local_basic_labels_dense(w: int, p: int, side: str) -> tuple:
    """Local labels with empty strict component, built from every dense quotient tuple."""
    out = []
    for comps in quotient_tuples(w, (p - 1) // 2):
        q = BarQuotient(BarPartition(()), dict(enumerate(comps, 1)), p)
        if q.sigma() == (-1 if side == SIDE_G else 1):
            out += [LocalLabel(side, q, PLUS), LocalLabel(side, q, MINUS)]
        else:
            out.append(LocalLabel(side, q, SELF))
    return tuple(out)


def _tuple_count(w: int, m: int) -> int:
    """Number of m-tuples of partitions with total size w."""
    if w == 0:
        return 1
    if m == 0:
        return 0
    return sum(_tuple_count(w - a, m - 1) * len(partitions(a)) for a in range(w + 1))


def brauer_count_closed_form(block) -> int:
    """Tuple count for the weight, doubled by the parity/sign/group rule.

    The degenerate n = 1 alternating cover coincides with the symmetric
    cover and is not doubled.
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


def dense_integer_expansion(matrix) -> tuple[list[list[int]], list, int]:
    """Integer expansion with a column for every class times every radical key.

    Keys are those used anywhere in the matrix, so most columns can be all
    zero; the key (1, 0) alone stands in when every entry is zero.
    """
    keys = sorted({k for row in matrix.entries for v in row for k in v.coefficients()}) or [(1, 0)]
    den = 1
    for row in matrix.entries:
        for v in row:
            for c in v.coefficients().values():
                den = lcm(den, c.denominator)
    out = []
    for row in matrix.entries:
        flat = []
        for v in row:
            coeffs = v.coefficients()
            for k in keys:
                c = coeffs.pop(k, Fraction(0)) * den
                if c.denominator != 1:
                    raise ValueError(f"{c} is not integral after clearing {den}")
                flat.append(int(c))
            if coeffs:
                raise ValueError(f"entry has coefficients outside the basis: {coeffs}")
        out.append(flat)
    columns = [(j, k) for j in range(len(matrix.classes)) for k in keys]
    return out, columns, den


def integer_table_by_block(row_keys: tuple, classes: tuple) -> IntegerTable:
    """The integer value table of the labels over the classes, built one class column at a time for these rows alone."""
    columns, vectors = [], []
    for j, c in enumerate(classes):
        for unit, vector in sorted(half_columns(row_keys, c).items()):
            columns.append((j, unit))
            vectors.append(vector)
    rows = tuple(zip(*vectors)) if vectors else tuple(() for _ in row_keys)
    return IntegerTable(row_keys, classes, rows, tuple(columns))


def matrix_text_by_cell(table: IntegerTable):
    """The CLI's matrix text in pieces, one per row, each cell looked up in a memo, every label by ``json``.

    Each class's cell is one slice of a row, memoised by the slice's units
    and values, a one-unit cell by its one integer.
    """
    units_of = [[] for _ in table.classes]
    for j, unit in table.columns:
        units_of[j].append(unit)
    slices, memos, start = [], {}, 0
    for units in map(tuple, units_of):
        one = start if len(units) == 1 else None
        slices.append((start, start + len(units), one, units, memos.setdefault(units, {})))
        start += len(units)
    yield "["
    sep = ""
    for x, row in zip(table.row_keys, table.rows):
        cells = []
        for lo, hi, one, units, memo in slices:
            key = row[lo:hi] if one is None else row[one]
            text = memo.get(key)
            if text is None:
                text = memo[key] = cli._cell_text(units, row[lo:hi])
            cells.append(text)
        yield sep + '{"label":' + cli._dumps(cli._label_json(x)) + ',"values":[' + ",".join(cells) + "]}"
        sep = ","
    yield "]"


def _hnf_with_transform(rows: list[list[int]]):
    """Row HNF H of the rows, a unimodular U with H = U * rows (zero rows padded), and the rank."""
    mat = [list(r) for r in rows]
    k = len(mat)
    m = len(mat[0]) if mat else 0
    U = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    r = 0
    for col in range(m):
        piv = next((i for i in range(r, k) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, k):
            while mat[i][col]:
                q = mat[r][col] // mat[i][col]
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[i])]
                U[r] = [a - q * b for a, b in zip(U[r], U[i])]
                mat[r], mat[i] = mat[i], mat[r]
                U[r], U[i] = U[i], U[r]
        if mat[r][col] < 0:
            mat[r] = [-a for a in mat[r]]
            U[r] = [-a for a in U[r]]
        for i in range(r):
            q = mat[i][col] // mat[r][col]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                U[i] = [a - q * b for a, b in zip(U[i], U[r])]
        r += 1
        if r == k:
            break
    return mat[:r], U, r


def _coordinates_by_transform(target, H, U, rank: int, k: int):
    """Integer y with y * C = target: reduce by H, then map back through U."""
    residual = list(target)
    y = [0] * k
    for i in range(rank):
        col = next(j for j, a in enumerate(H[i]) if a)
        if residual[col] % H[i][col]:
            return None
        q = residual[col] // H[i][col]
        if q:
            residual = [a - q * b for a, b in zip(residual, H[i])]
        y[i] = q
    if any(residual):
        return None
    return tuple(sum(y[i] * U[i][j] for i in range(k)) for j in range(k))


def z_span_by_transform(candidate_keys, row_keys, int_rows) -> tuple[bool, dict, int, int]:
    """(verdict, coordinates, rank_full, rank_candidate) of the Z-span decision.

    The HNF of the candidate rows keeps its unimodular transform U beside
    it, and each coordinate vector is a product y * U; rank_full is a full
    HNF of every row.
    """
    by_key = dict(zip(row_keys, int_rows))
    cand = [by_key[key] for key in candidate_keys]
    k = len(cand)
    coordinates = {}
    rank = 0
    if k == 0:
        ok = all(not any(row) for row in int_rows)
    else:
        H, U, rank = _hnf_with_transform(cand)
        for key in row_keys:
            if key not in candidate_keys:
                coordinates[key] = _coordinates_by_transform(by_key[key], H, U, rank, k)
        ok = rank == k and None not in coordinates.values()
    return ok, coordinates, len(_hnf_with_transform(int_rows)[0]), rank


def _kernel_entry(kernel: Kernel, cell: dict) -> Exact:
    return Exact({key: Fraction(c, kernel.den) for key, c in cell.items()})


def kernel_table(kernel: Kernel) -> tuple:
    """The dense table of Exact entries, table[i][j] over source x target classes."""
    table = [[ZERO] * len(kernel.target_classes) for _ in kernel.source_classes]
    for (i, j), cell in kernel.cells.items():
        table[i][j] = _kernel_entry(kernel, cell)
    return tuple(map(tuple, table))


def kernel_value(kernel: Kernel, x, y) -> Exact:
    """The kernel's Exact entry at the source class x and the target class y."""
    cell = kernel.cells.get((kernel.source_classes.index(x), kernel.target_classes.index(y)))
    return _kernel_entry(kernel, cell) if cell else ZERO


def kernel_from_table(source_classes, target_classes, table) -> Kernel:
    """The kernel of a dense table of AlgNum entries, over their common denominator."""
    den = lcm(1, *(c.denominator for row in table for v in row for c in v.coefficients().values()))
    cells = {
        (i, j): {key: int(c * den) for key, c in v.coefficients().items()}
        for i, row in enumerate(table)
        for j, v in enumerate(row)
        if v
    }
    return Kernel(tuple(source_classes), tuple(target_classes), cells, den)


def compose_kernel(a: Kernel, b: Kernel) -> Kernel:
    """Kernel of the composition, averaging over the middle classes: y and zy, so twice y's term."""
    if a.target_classes != b.source_classes:
        raise ValueError("middle class lists do not match")
    ta, tb = kernel_table(a), kernel_table(b)
    table = []
    for i in range(len(a.source_classes)):
        row = []
        for k in range(len(b.target_classes)):
            total = ZERO
            for j, y in enumerate(a.target_classes):
                total = total + ta[i][j] * tb[j][k] * Fraction(2, y.centralizer_order)
            row.append(total)
        table.append(tuple(row))
    return kernel_from_table(a.source_classes, b.target_classes, table)


def value_vector(x: SpinLabel, classes: tuple[SplitClass, ...]) -> tuple[Exact, ...]:
    return tuple(Exact.of(char_value(x, c)) for c in classes)


def inner_product(f: tuple[Exact, ...], g: tuple[Exact, ...], classes: tuple[SplitClass, ...]) -> Fraction:
    """Hermitian inner product of two spin value vectors over a class list.

    Class sizes enter through the stored centralizer orders.  Spin
    characters vanish off the split classes, and x stands for x and zx, where
    both values change sign, so x's term counts twice in the group average.
    """
    if not (len(f) == len(g) == len(classes)):
        raise ValueError("vectors and class list must have equal length")
    total = ZERO
    for vf, vg, c in zip(f, g, classes):
        total = total + vf * vg.conjugate() * Fraction(2, c.centralizer_order)
    return total.as_rational()


def kernel_of_algnum(iso, source_values, target_values) -> Kernel:
    """Kernel table summed entry by entry in Exact arithmetic."""
    terms = [
        (
            [sign * Exact.of(v).conjugate() for v in value_row(source_values, s)],
            [Exact.of(v) for v in value_row(target_values, t)],
        )
        for s, t, sign in iso.mapping
    ]
    table = []
    for i in range(len(source_values.classes)):
        row = []
        for j in range(len(target_values.classes)):
            total = ZERO
            for vs, vt in terms:
                total = total + vs[i] * vt[j]
            row.append(total)
        table.append(tuple(row))
    return kernel_from_table(source_values.classes, target_values.classes, table)


def perfect_check_algnum(iso, p: int, block) -> bool:
    """Perfectness by projecting each restricted character in Exact arithmetic."""
    values = split_value_matrix(block)
    classes = values.classes
    vec = {key: [Exact.of(v) for v in row] for key, row in zip(values.row_keys, values.entries)}
    for chi in values.row_keys:
        restricted = tuple(
            v if c.is_regular(p) else ZERO for v, c in zip(vec[chi], classes)
        )
        # project the restricted function onto the block, then map
        lhs = [ZERO] * len(classes)
        for eta in values.row_keys:
            coeff = ZERO
            for v, w, c in zip(restricted, vec[eta], classes):
                # c stands for c and zc, where v and w both change sign
                coeff = coeff + v * w.conjugate() * Fraction(2, c.centralizer_order)
            img, sign = image(iso, eta)
            if not coeff.is_zero():
                lhs = [acc + sign * coeff * v for acc, v in zip(lhs, vec[img])]
        img, sign = image(iso, chi)
        rhs = [
            sign * v if c.is_regular(p) else ZERO for v, c in zip(vec[img], classes)
        ]
        if lhs != rhs:
            return False
    return True


def _valuation(q: Fraction, p: int) -> int:
    """Valuation at p of a nonzero rational, by repeated division."""
    v = 0
    while q.numerator % p == 0:
        q /= p
        v += 1
    while q.denominator % p == 0:
        q *= p
        v -= 1
    return v


def broue_check_by_coefficients(kernel, p: int) -> BroueReport:
    """Broué's two conditions, dividing every coefficient of every entry by each class's order."""
    bad_i = []
    bad_ii = []
    table = kernel_table(kernel)
    for i, x in enumerate(kernel.source_classes):
        for j, y in enumerate(kernel.target_classes):
            v = table[i][j]
            if not all(
                _valuation(c / z.centralizer_order, p) >= 0
                for c in v.coefficients().values()
                for z in (x, y)
            ):
                bad_i.append((x, y))
            if not v.is_zero() and x.is_regular(p) != y.is_regular(p):
                bad_ii.append((x, y))
    return BroueReport(tuple(bad_i), tuple(bad_ii))


@dataclass(frozen=True)
class ZClass:
    """The split class ``cls`` (z = 0) or its central translate z.cls (z = 1)."""

    cls: SplitClass
    z: int

    @property
    def centralizer_order(self) -> int:
        return self.cls.centralizer_order

    def is_regular(self, p: int) -> bool:
        return self.cls.is_regular(p)


def z_classes(classes) -> tuple:
    """Both central translates of every class, x before zx."""
    return tuple(ZClass(c, z) for c in classes for z in (0, 1))


def expand_z(kernel) -> Kernel:
    """The kernel over z_classes of its class lists.

    Spin characters are odd under z, so mu(z^a x, z^b y) = (-1)^(a + b) mu(x, y):
    each cell becomes four, with signs +, -, -, +.
    """
    cells = {}
    for (i, j), cell in kernel.cells.items():
        for a in (0, 1):
            for b in (0, 1):
                sign = -1 if a != b else 1
                cells[2 * i + a, 2 * j + b] = {key: sign * c for key, c in cell.items()}
    return Kernel(z_classes(kernel.source_classes), z_classes(kernel.target_classes), cells, kernel.den)


def z_value_matrix(values):
    """A value matrix over z_classes of its classes: each value, then its negative at zx."""
    entries = tuple(tuple(u for v in map(Exact.of, row) for u in (v, -v)) for row in values.entries)
    return ValueMatrix(values.row_keys, z_classes(values.classes), entries)


def values_json(table) -> list[list[dict]]:
    """Each row's values by ``Exact.to_json``: the table holds twice each value, so a is a/2."""
    out = []
    for row in table.rows:
        cells = [{} for _ in table.classes]
        for (j, unit), a in zip(table.columns, row):
            cells[j][unit] = Fraction(a, 2)
        out.append([Exact(cell).to_json() for cell in cells])
    return out


def cli_payload(argv: list[str]) -> tuple[dict, list[str], int]:
    """The CLI's payload as one tree, its table lines and its exit status, for valid argv.

    The entries come from ``cli._entries``; a verify entry's integer table is
    rendered as a list of {"label", "values"} dicts, and verify's blocks are
    wrapped with their summary only after the last one is built.
    """
    args = cli.build_parser().parse_args(argv)
    _, lines_of = cli.COMMANDS[args.command]
    results = list(cli._entries(args))
    for entry in results:
        if "matrix" in entry:
            table = entry["matrix"]
            entry["matrix"] = [
                {"label": {"partition": list(x.lam.parts), "tag": x.tag}, "values": values}
                for x, values in zip(table.row_keys, values_json(table))
            ]
    lines = [line for entry in results for line in lines_of(entry)]
    # a verify block fails on its verdict, a selftest check on its flag
    failed = sum(1 for entry in results if entry.get("verdict", "pass") != "pass" or not entry.get("ok", True))
    if args.command == "verify":
        summary = {"blocks": len(results), "pass": len(results) - failed, "fail": failed}
        results = [{"summary": summary, "blocks": results}]
        lines.append(f"summary: {summary['pass']} pass, {summary['fail']} fail of {summary['blocks']}")
    payload = {
        "command": args.command,
        "parameters": {
            "n": getattr(args, "n", None),
            "p": getattr(args, "p", None),
            "group": getattr(args, "group", None),
            "core": list(args.core.parts) if getattr(args, "core", None) is not None else None,
        },
        "results": results,
    }
    return payload, lines, (1 if failed else 0)
