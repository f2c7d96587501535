"""Restricted value matrices and exact Z-span verification of basic sets.

Each block yields a matrix of exact character values over its p-regular
split classes (zflag 0 only: values at the central translates are exact
negatives, so any integral relation transfers).  Entries are expanded over
the Q-linearly independent basis sqrt(d)*i^e with one global denominator,
reducing every question to integer matrices, which are handled by a
fraction-free Hermite normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algnum import AlgNum
from .blocks import BlockId, basic_set, block_members
from .spinchar import char_value, split_classes


@dataclass(frozen=True)
class ValueMatrix:
    """Rows of exact values indexed by labels, columns by class representatives."""

    row_keys: tuple
    classes: tuple
    entries: tuple[tuple[AlgNum, ...], ...]

    def row(self, key) -> tuple[AlgNum, ...]:
        return self.entries[self.row_keys.index(key)]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a Z-span comparison between candidate rows and a full matrix.

    ``coordinates`` maps every non-candidate row key to the integer
    coefficients expressing it in the candidate rows, or to None when no
    integral expression exists.  The verdict is pass exactly when all
    coordinates are integral and the candidate rows are Z-independent.
    """

    block: BlockId | None
    candidates: tuple
    verdict: bool
    coordinates: dict
    rank_full: int
    rank_candidate: int


def restricted_matrix(block: BlockId) -> ValueMatrix:
    """Block values over its p-regular split classes at zflag 0."""
    cols = tuple(
        c
        for c in split_classes(block.n, regular_only_for=block.p, group=block.group)
        if c.zflag == 0
    )
    rows = block_members(block)
    entries = tuple(tuple(char_value(x, c) for c in cols) for x in rows)
    return ValueMatrix(rows, cols, entries)


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


def hnf(rows: list[list[int]], transform: bool = False):
    """Row Hermite normal form over Z with fraction-free pivoting.

    Returns the list of nonzero HNF rows; with ``transform=True`` also the
    unimodular matrix U with H = U * rows (padded rows of U included) and the
    rank.
    """
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
    H = mat[:r]
    if transform:
        return H, U, r
    return H


def integral_coordinates(target: list[int], H: list[list[int]], U: list[list[int]], rank: int, k: int):
    """Integer y with y * C = target, via the HNF H = U * C; None if impossible."""
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


def z_span_equal(candidate_keys, matrix: ValueMatrix, block: BlockId | None = None) -> VerificationReport:
    """Decide whether the candidate rows are a Z-basis of the full row span."""
    candidate_keys = tuple(candidate_keys)
    for key in candidate_keys:
        if key not in matrix.row_keys:
            raise ValueError(f"candidate row {key} not among the matrix rows")
    int_rows, _, _ = integer_expansion(matrix)
    by_key = dict(zip(matrix.row_keys, int_rows))
    cand = [by_key[key] for key in candidate_keys]
    k = len(cand)
    if k == 0:
        others_zero = all(not any(by_key[key]) for key in matrix.row_keys)
        return VerificationReport(block, candidate_keys, others_zero, {}, len(hnf(int_rows)), 0)
    H, U, rank = hnf(cand, transform=True)
    coordinates = {}
    ok = rank == k
    for key in matrix.row_keys:
        if key in candidate_keys:
            continue
        coords = integral_coordinates(by_key[key], H, U, rank, k)
        coordinates[key] = coords
        if coords is None:
            ok = False
    rank_full = len(hnf(int_rows))
    return VerificationReport(block, candidate_keys, ok, coordinates, rank_full, rank)


def verify_basic_set(block: BlockId) -> VerificationReport:
    """Check that the empty-strict-component labels are a Z-basis of the block span."""
    return z_span_equal(basic_set(block), restricted_matrix(block), block)


def padic_valuation(q: Fraction, p: int) -> int | None:
    """Valuation of a nonzero rational at p; None stands for +infinity at 0."""
    if q == 0:
        return None
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def p_integrality(v: AlgNum, p: int, denominator: int) -> bool:
    """Whether v/denominator is integral at p.

    Coefficients over the radical basis must all have non-negative valuation
    after division; for odd p this is equivalent to membership in the
    localization at p of the algebraic integers, since the ring-of-integers
    denominators in multiquadratic fields are powers of 2.
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    vden = padic_valuation(Fraction(denominator), p)
    for c in v.coefficients().values():
        vc = padic_valuation(c, p)
        if vc is not None and vc < vden:
            return False
    return True
