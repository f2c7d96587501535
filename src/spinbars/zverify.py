"""Block value tables and exact Z-span verification of basic sets.

Every character value is a sum of half-integer multiples of the Q-linearly
independent units sqrt(d)*i^e, so a block's value table holds twice each
value, as the value rule ``spinchar.half_columns`` gives it, one class
column at a time.  A split class x stands for its central translate zx,
where every value is the exact negative, so any integral relation and any
kernel condition transfers and the tables carry x alone.  ``block_tables``
covers the p-regular split classes of a run's blocks for the Z-span
decision, and the report of ``verify_basic_set`` carries a block's table;
``split_table`` covers every split class, for the kernels and the
perfectness check in ``isometry``.  Tables are built in batches, never
cached: a run of consecutive defect-zero blocks (one or two rows each,
and most of the blocks at a large p), no longer than the largest block,
is one batch, with one ``half_columns`` call per class over all its rows,
and every other block is a batch of its own; ``block_table`` is the batch
of one block.  Each block's table keeps the unit columns nonzero on its
own rows, so a batch changes no table.  ``AlgNum`` appears only at the
API: ``restricted_matrix``, ``integer_expansion`` and ``z_span_equal``
take and give exact values, which carry no arithmetic, and the CLI renders
the report's values from the integer table.  Every question about the
table is then one about integer matrices.  The Z-span decision
(``_z_span``) decides a pass modulo the word prime Q, by one Gauss-Jordan
echelon of the candidate rows packed into 64-bit fields, and proves it by
the exact integer check y * C = t on every non-candidate row t.  A
fraction-free Hermite normal form decides every fail, and any block the
modular path cannot prove.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress
from math import lcm
from typing import NamedTuple

from .algnum import AlgNum
from .blocks import BlockId, basic_set, block_members
from .spinchar import char_value, half_columns, split_classes

__all__ = ["ValueMatrix", "VerificationReport", "restricted_matrix", "verify_basic_set", "z_span_equal"]


@dataclass(frozen=True)
class ValueMatrix:
    """Rows of exact values indexed by labels, columns by class representatives."""

    row_keys: tuple
    classes: tuple
    entries: tuple[tuple[AlgNum, ...], ...]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a Z-span comparison between candidate rows and a full matrix.

    ``coordinates`` maps every non-candidate row key to the integer
    coefficients expressing it in the candidate rows, or to None when no
    integral expression exists.  The verdict is pass exactly when all
    coordinates are integral and the candidate rows are Z-independent.
    ``table``, the integer table the decision ran on, makes the report a
    certificate; it is None from ``z_span_equal``.
    """

    table: IntegerTable | None
    candidates: tuple
    verdict: bool
    coordinates: dict
    rank_full: int
    rank_candidate: int


class IntegerTable(NamedTuple):
    """A block's values over a list of its split classes, as integers.

    ``columns`` lists (class index, (d, e)) pairs in sorted order, only those
    nonzero in some row; the value of row r on class j is the sum over its
    columns (j, (d, e)) of rows[r][t] / 2 * sqrt(d) * i^e: the rows hold
    twice each value, the integers the value rule gives.  The layout is
    that of ``integer_expansion`` on the exact values of the same rows and
    classes, and the numbers are twice its rows over its denominator.
    A named tuple rather than a frozen dataclass: the class is created
    when the CLI starts, and a frozen dataclass takes ten times as long.
    """

    row_keys: tuple
    classes: tuple
    rows: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[int, tuple[int, int]], ...]


# the same for every block of one (group, n, p): filtered once, not once per block
@lru_cache(maxsize=16)
def _regular_classes(group: str, n: int, p: int) -> tuple:
    return tuple(c for c in split_classes(n, group=group) if c.is_regular(p))


def _value_matrix(row_keys: tuple, classes: tuple) -> ValueMatrix:
    """The exact values of the labels over the classes."""
    return ValueMatrix(row_keys, classes, tuple(tuple(char_value(x, c) for c in classes) for x in row_keys))


def restricted_matrix(block: BlockId) -> ValueMatrix:
    """Block values over its p-regular split classes."""
    return _value_matrix(block_members(block), _regular_classes(block.group, block.n, block.p))


def _batches(blocks):
    """The members of each block in order, in batches: lists of the blocks' label tuples.

    A batch is a run of consecutive defect-zero blocks with no more rows
    than the largest of the blocks, so no batch's table outgrows the largest
    block's; every other block is a batch of its own.
    """
    members = [block_members(b) for b in blocks]
    cap = max(map(len, members))
    batch, size = [], 0
    for i, (b, keys) in enumerate(zip(blocks, members)):
        if batch and not (b.is_defect_zero() and blocks[i - 1].is_defect_zero() and size + len(keys) <= cap):
            yield batch
            batch, size = [], 0
        batch.append(keys)
        size += len(keys)
    yield batch


def _tables(blocks, classes: tuple):
    """Each block's integer value table over the classes, in order, built one class column per batch.

    A batch's columns hold every unit nonzero on some row of the batch, and
    each block keeps those nonzero on its own rows, in the same sorted
    order: its table is the one its rows alone give.  A lone block keeps
    them all, since ``half_columns`` leaves out the units zero on every row.
    """
    for batch in _batches(blocks):
        every = tuple(chain.from_iterable(batch))
        columns, vectors = [], []
        for j, c in enumerate(classes):
            for unit, vector in sorted(half_columns(every, c).items()):
                columns.append((j, unit))
                vectors.append(vector)
        rows = list(zip(*vectors)) if vectors else [()] * len(every)
        del vectors  # the rows hold every value now
        start = 0
        for row_keys in batch:
            own = rows[start : start + len(row_keys)]
            start += len(row_keys)
            if len(batch) == 1:
                yield IntegerTable(row_keys, classes, tuple(own), tuple(columns))
                continue
            keep = list(map(any, zip(*own)))
            own = tuple(tuple(compress(row, keep)) for row in own)
            yield IntegerTable(row_keys, classes, own, tuple(compress(columns, keep)))


def block_tables(blocks) -> Iterator[IntegerTable]:
    """The integer value table of each of the blocks, in order, over their p-regular split classes.

    The blocks are a nonempty sequence from one (group, n, p).  This stream
    is the one seam every table over the regular classes comes through:
    ``block_table`` reads it for one block, and the CLI for its run.
    """
    return _tables(blocks, _regular_classes(blocks[0].group, blocks[0].n, blocks[0].p))


def block_table(block: BlockId) -> IntegerTable:
    """The block's integer value table over its p-regular split classes."""
    return next(block_tables((block,)))


def split_table(block: BlockId) -> IntegerTable:
    """The block's integer value table over every split class."""
    return next(_tables((block,), split_classes(block.n, group=block.group)))


def integer_expansion(matrix: ValueMatrix) -> tuple[list[list[int]], list, int]:
    """Expand the entries over the radical basis, clearing one global denominator.

    Returns (integer rows, list of (class index, basis key) column labels,
    denominator).  Only the columns that are nonzero in some row appear:
    an all-zero column changes neither a row Hermite normal form nor any
    integral relation between the rows.
    """
    coeffs = [[v.coefficients() for v in row] for row in matrix.entries]
    columns = sorted({(j, k) for row in coeffs for j, entry in enumerate(row) for k in entry})
    den = lcm(1, *(c.denominator for row in coeffs for entry in row for c in entry.values()))
    out = [[int(row[j].get(k, 0) * den) for j, k in columns] for row in coeffs]
    return out, columns, den


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form over Z with fraction-free pivoting; the nonzero rows.

    The transform comes along by augmenting: the HNF of [C | I] is [H | U]
    with U unimodular and H = U * C, and its rows whose C part is zero span
    the integral relations between the rows of C.

    Pivot rule: each column is cleared below the pivot position in rounds,
    until one nonzero entry is left.  In each round the row with the least
    nonzero |entry| moves up to the pivot position, and every row below
    subtracts its floor quotient times that row, leaving an entry smaller
    than the pivot (Cohen, *A Course in Computational Algebraic Number
    Theory*, §2.4).  All rows are reduced against one small pivot, so the
    entries stay small.  Taking the first nonzero row as pivot and running
    a Euclid of it against each row in turn instead chains the quotients
    of one Euclid into the next: on the principal block of sym n=30 p=5
    ([C | I] of 65 rows and 200 columns) the entries reached 165,719 bits
    and the HNF took 30 to 50 s, against at most 152 bits and 0.1 s here.
    The pivot rule changes no result: the pivots are made positive and
    the entries above each pivot are reduced to [0, pivot), and that
    reduced form is unique for the lattice the rows span.
    """
    mat = [list(r) for r in rows]
    k = len(mat)
    m = len(mat[0]) if mat else 0
    r = 0
    for col in range(m):
        live = [i for i in range(r, k) if mat[i][col]]
        if not live:
            continue
        # rows r..k-1 are zero left of col: every update starts at col
        while live:
            piv = min(live, key=lambda i: abs(mat[i][col]))
            mat[r], mat[piv] = mat[piv], mat[r]
            pivot_row = mat[r][col:]
            pivot = pivot_row[0]
            # after the swap, the old pivot row (if any) sits at piv
            live = [i for i in live if i != r and mat[i][col]]
            for i in live:
                q = mat[i][col] // pivot
                mat[i][col:] = [a - q * b for a, b in zip(mat[i][col:], pivot_row)]
            live = [i for i in live if mat[i][col]]
        if mat[r][col] < 0:
            mat[r][col:] = [-a for a in mat[r][col:]]
        pivot_row = mat[r][col:]
        pivot = pivot_row[0]
        for i in range(r):
            q = mat[i][col] // pivot
            if q:
                mat[i][col:] = [a - q * b for a, b in zip(mat[i][col:], pivot_row)]
        r += 1
        if r == k:
            break
    return mat[:r]


def integral_coordinates(target: list[int], H: list[list[int]], m: int):
    """Integer y with y * C = target, from the HNF [H | U] of [C | I]; None if impossible.

    C has m columns.  Reducing [target | 0] by the rows that pivot in the C
    part leaves [0 | -y] exactly when target is in the Z-span of C.
    """
    residual = list(target) + [0] * len(H)
    col = -1
    for row in H:
        # H is in echelon form: each (nonzero) row's pivot lies right of the previous one's
        col += 1
        while not row[col]:
            col += 1
        if col >= m:
            break
        q, rem = divmod(residual[col], row[col])
        if rem:
            return None
        if q:
            # row is zero left of its pivot
            residual[col:] = [a - q * b for a, b in zip(residual[col:], row[col:])]
    if any(residual[:m]):
        return None
    return tuple(-a for a in residual[m:])


# The modular pass path (Dixon, Numer. Math. 40, 1982; Storjohann, ETH thesis,
# 2000).  Q is the largest prime below 2**26: a 64-bit field holds a residue
# plus _MAX_UPDATES lazy updates of at most (Q - 1)**2 each without a carry.
Q = 67_108_859
_MAX_UPDATES = (2**64 - Q) // (Q - 1) ** 2  # 4096
_FIELD = (1 << 64) - 1


def _pack(fields) -> int:
    """Nonnegative fields below 2**64, field j at bit 64 * j."""
    return int.from_bytes(struct.pack(f"<{len(fields)}Q", *fields), "little")


def _residues(packed: int, width: int) -> list[int]:
    """The width fields of a packed row, each reduced mod Q."""
    return [v % Q for v in struct.unpack(f"<{width}Q", packed.to_bytes(8 * width, "little"))]


def _reduce(packed: int, cols, pivots) -> int:
    """The packed row with each pivot's column cleared mod Q, by lazy updates."""
    for col, pivot in zip(cols, pivots):
        e = (packed >> (64 * col) & _FIELD) % Q
        if e:
            packed += (Q - e) * pivot
    return packed


def _echelon_mod_q(cand: list, m: int):
    """Gauss-Jordan echelon of [C | I] mod Q for the candidate rows C; None below k pivots.

    Returns (pivot columns, packed pivot rows).  Each row is reduced by the
    earlier pivots with lazy updates ``row += (Q - e) * pivot`` on its packed
    form, and is unpacked, scaled to pivot 1 and repacked once it becomes a
    pivot.  A back substitution then clears every pivot column above its
    pivot, so the pivot rows are [R | U] with U * C = R mod Q and R the
    identity on the pivot columns.
    """
    k = len(cand)
    width = m + k
    cols, pivots = [], []
    for i, row in enumerate(cand):
        packed = _pack([a % Q for a in row]) | 1 << (64 * (m + i))
        fields = _residues(_reduce(packed, cols, pivots), width)
        col = next((j for j in range(m) if fields[j]), None)
        if col is None:
            return None
        inverse = pow(fields[col], -1, Q)
        cols.append(col)
        pivots.append(_pack([v * inverse % Q for v in fields]))
    # pivot j > i is already zero on every other pivot column: clearing
    # column cols[j] of row i disturbs none of them
    for i in reversed(range(k)):
        packed = _reduce(pivots[i], cols[i + 1 :], pivots[i + 1 :])
        if packed != pivots[i]:
            pivots[i] = _pack(_residues(packed, width))
    return cols, pivots


def _signed_packing(rows: list, words: int) -> list[int]:
    """Each row r as the integer sum of r[j] * 2**(64 * words * j).

    Every entry must lie in the signed range of its field.  An entry that
    fits 64 bits goes through ``struct.pack`` into the low word of its
    field, in two's complement: subtracting twice each field's bit 63 then
    turns the word's value v + 2**64 back into v.  A column with a larger
    entry is packed as zeros and its entries are added one by one.
    """
    if not rows:
        return []
    width = len(rows[0])
    field = 64 * words
    sign = int.from_bytes((bytes(7) + b"\x80" + bytes(8 * words - 8)) * width, "little")
    # at one word every entry is below the bound, so below 2**63
    wide = [j for j, column in enumerate(zip(*rows)) if max(map(abs, column)) >> 63] if words > 1 else []
    out = []
    for row in rows:
        extra = 0
        if wide:
            row = list(row)
            for j in wide:
                extra += row[j] << (field * j)
                row[j] = 0
        # each 8-byte word to the low word of its field, unread: no byte order involved
        spread = bytearray(8 * words * width)
        memoryview(spread).cast("Q")[::words] = memoryview(struct.pack(f"<{width}q", *row)).cast("Q")
        u = int.from_bytes(spread, "little")
        out.append(u - ((u & sign) << 1) + extra)
    return out


def _lifted_coordinates(t: tuple, cols: list, transform: list, k: int) -> tuple:
    """y = sum_j t[c_j] * U_j mod Q, lifted to the symmetric range: t's coordinates if it is y * C."""
    acc = sum((t[col] % Q) * u for col, u in zip(cols, transform))
    return tuple(v - Q if v > Q // 2 else v for v in _residues(acc, k))


def _modular_pass(cand: list, targets: list, m: int) -> dict | None:
    """The coordinates of each target row in the candidate rows, proved exactly; None to fall back.

    k pivots mod Q make the candidate rows independent over the rationals,
    so each target has at most one rational coordinate vector.  The pivot rows
    [R | U] have R the identity on the pivot columns c_j, so a target
    t = y * C has y = sum_j t[c_j] * U_j mod Q.  Lifted to the symmetric
    range, y is checked exactly, y * C = t, which proves it integral and
    the target in the Z-span.  None when k exceeds _MAX_UPDATES (a field
    takes at most k - 1 updates in the echelon and k terms in y), when
    there are fewer than k pivots mod Q, or when a check fails.
    """
    k = len(cand)
    if k > _MAX_UPDATES:
        return None
    echelon = _echelon_mod_q(cand, m)
    if echelon is None:
        return None
    if not targets:
        # k pivots and nothing to solve: a pass with no check to run
        return {}
    cols, pivots = echelon
    transform = [pivot >> (64 * m) for pivot in pivots]
    solved = {t: _lifted_coordinates(t, cols, transform, k) for t in targets}
    # |(y * C - t)_j| <= |y|_1 * max|C| + max|t|: a signed field of that many
    # words holds it, so the packing is injective on the differences
    top = max((max(map(abs, row), default=0) for row in (*cand, *targets)), default=0)
    bound = max(sum(map(abs, y)) for y in solved.values()) * top + top
    words = (bound.bit_length() + 64) // 64
    packed = _signed_packing(cand, words)
    for t, P in zip(targets, _signed_packing(targets, words)):
        if sum(c * row for c, row in zip(solved[t], packed) if c) != P:
            return None
    return solved


def _hnf_span(cand: list, targets: list, m: int) -> tuple[bool, dict, int, int]:
    """The Z-span decision by one HNF of [C | I]: every fail, and any pass the modular path leaves.

    Returns (verdict, {target: coordinates or None}, rank_full,
    rank_candidate) for the candidate rows C and the distinct target rows,
    each solved once.  Scaling C by s > 0 sends the reduced HNF [H | U] of
    [C | I] to [sH | U]: the row operations are the same, the pivots keep
    their positions, and each entry above a C-part pivot stays in
    [0, pivot).  So ``integral_coordinates`` meets the same quotients and
    divisibility, and the verdict, the coordinates (even of dependent
    candidates on a fail) and both ranks are those of the rows at any
    other scale.
    """
    k = len(cand)
    H = hnf([list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(cand)])
    rank = sum(1 for row in H if any(row[:m]))
    solved = {t: integral_coordinates(t, H, m) for t in targets}
    ok = rank == k and None not in solved.values()
    # on a pass the k candidate rows are independent and every other row is
    # an integral combination of them, so the full rank is k; on a fail the
    # distinct rows span what all the rows span
    rank_full = k if ok else len(hnf([*cand, *targets]))
    return ok, solved, rank_full, rank


def _z_span(candidate_keys: tuple, row_keys: tuple, int_rows, table) -> VerificationReport:
    """The Z-span decision on integer rows, one per row key, at any one scale of the values.

    Each distinct non-candidate row is solved once.  A pass is decided
    mod Q and proved by the exact check y * C = t (``_modular_pass``), with
    the unique coordinates and both ranks k.  Anything else, every fail
    included, is decided by ``_hnf_span``, whose answer is the same on a
    pass.  Neither depends on the scale of the rows: a pass's coordinates
    are the unique ones at any scale, and the HNF's answer is scale-free
    (see ``_hnf_span``).
    """
    chosen = set(candidate_keys)
    by_key = dict(zip(row_keys, map(tuple, int_rows)))
    cand = [by_key[key] for key in candidate_keys]
    targets = list(dict.fromkeys(by_key[key] for key in row_keys if key not in chosen))
    m = len(int_rows[0]) if int_rows else 0
    k = len(cand)
    solved = _modular_pass(cand, targets, m)
    verdict, solved, rank_full, rank = _hnf_span(cand, targets, m) if solved is None else (True, solved, k, k)
    coordinates = {key: solved[by_key[key]] for key in row_keys if key not in chosen}
    return VerificationReport(table, candidate_keys, verdict, coordinates, rank_full, rank)


def z_span_equal(candidate_keys, matrix: ValueMatrix) -> VerificationReport:
    """Decide whether the candidate rows are a Z-basis of the full row span."""
    candidate_keys = tuple(candidate_keys)
    for key in candidate_keys:
        if key not in matrix.row_keys:
            raise ValueError(f"candidate row {key} not among the matrix rows")
    return _z_span(candidate_keys, matrix.row_keys, integer_expansion(matrix)[0], None)


def verify_table(block: BlockId, table: IntegerTable) -> VerificationReport:
    """Check that the empty-strict-component labels are a Z-basis of the span of the block's table."""
    return _z_span(basic_set(block), table.row_keys, table.rows, table)


def verify_basic_set(block: BlockId) -> VerificationReport:
    """Check that the empty-strict-component labels are a Z-basis of the block span."""
    return verify_table(block, block_table(block))

