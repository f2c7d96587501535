import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbars.barcomb import BarPartition
from spinbars.blocks import BlockId, basic_set, block_members, block_partition, brauer_count
from spinbars.spinchar import ALT, MINUS, PLUS, SELF, SYM, SpinLabel, is_odd_type, split_classes
from spinbars.zverify import (
    ValueMatrix,
    block_table,
    block_tables,
    hnf,
    integer_expansion,
    restricted_matrix,
    split_table,
    verify_basic_set,
    z_span_equal,
)
from spinbars import zverify
from spinbars.isometry import split_value_matrix
from oracles import (
    I,
    Exact,
    _hnf_with_transform,
    block_members_by_scan,
    bounded_combination,
    dense_integer_expansion,
    integer_table_by_block,
    matrix_text_by_cell,
    values_json,
    z_span_by_transform,
)


def num(x):
    return Exact.from_rational(x)


class TestRestrictedMatrix:
    def test_micro_instance(self):
        m = restricted_matrix(BlockId(SYM, 3, BarPartition(()), 1))
        assert {c.pi for c in m.classes} == {(1, 1, 1), (2, 1)}
        assert len(m.classes) == 2  # one class per type: x stands for zx
        cols = {c.pi: i for i, c in enumerate(m.classes)}
        rows = {(x.lam.parts, x.tag): r for x, r in zip(m.row_keys, m.entries)}
        assert rows[((3,), SELF)][cols[(1, 1, 1)]] == num(2)
        assert rows[((3,), SELF)][cols[(2, 1)]] == num(0)
        assert rows[((2, 1), PLUS)][cols[(1, 1, 1)]] == num(1)
        assert rows[((2, 1), PLUS)][cols[(2, 1)]] == I
        assert rows[((2, 1), MINUS)][cols[(2, 1)]] == -I

    def test_defect_zero_single_row(self):
        m = restricted_matrix(BlockId(SYM, 3, BarPartition((1,)), 0))
        assert len(m.row_keys) == 1

    def test_odd_type_columns_never_vanish(self):
        for n in range(1, 9):
            for p in (3, 5):
                for b, _ in block_partition(SYM, n, p):
                    m = restricted_matrix(b)
                    for j, c in enumerate(m.classes):
                        if is_odd_type(c.pi):
                            assert any(row[j] for row in m.entries), (b, c)


class TestHnf:
    def test_canonical_form(self):
        H = hnf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert H == [[2, 4, 4], [0, 6, 12], [0, 0, 12]] or all(
            h[i] > 0 for i, h in zip(range(3), H)
        )
        # span invariance under row shuffles and sign flips
        H2 = hnf([[10, 4, 16], [6, -6, -12], [2, 4, 4]])
        assert hnf(H) == hnf(H2)

    def test_rank_and_zero_rows(self):
        assert hnf([[1, 2], [2, 4]]) == [[1, 2]]
        assert hnf([[0, 0], [0, 0]]) == []


@st.composite
def integer_matrices(draw):
    """Small integer matrices with zero entries and columns, negative entries and dependent rows."""
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    entries = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(10**6), 10**6))
    rows = [[draw(entries) for _ in range(m)] for _ in range(k)]
    for j in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(m)])
    return draw(st.permutations(rows))


def augmented(rows):
    """[C | I]: the candidate rows with the identity beside them, as ``_z_span`` builds it."""
    return [list(row) + [int(i == j) for j in range(len(rows))] for i, row in enumerate(rows)]


class TestHnfAgainstTheFirstNonzeroPivot:
    """The least-|entry| pivot gives the H of the first-nonzero pivot rule of the oracle: the reduced HNF is unique."""

    @given(integer_matrices())
    @settings(max_examples=300, deadline=None)
    def test_random_matrices(self, rows):
        assert hnf(rows) == _hnf_with_transform(rows)[0]
        assert hnf(augmented(rows)) == _hnf_with_transform(augmented(rows))[0]

    def test_augmented_candidate_rows_of_every_small_block(self):
        blocks = 0
        for group in (SYM, ALT):
            for p in (3, 5, 7):
                for n in range(1, 17):
                    for b, _ in block_partition(group, n, p):
                        table = block_table(b)
                        rows = augmented([table.rows[table.row_keys.index(x)] for x in basic_set(b)])
                        assert hnf(rows) == _hnf_with_transform(rows)[0], b
                        blocks += 1
        assert blocks == 284


class TestScaleInvariance:
    """The Z-span decision does not see the scale of its rows: ``block_table`` holds twice each value."""

    @given(integer_matrices(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_doubling_the_rows(self, rows, data):
        # the leading rows are the candidates, dependent ones among them; the rest are targets
        k = data.draw(st.integers(1, len(rows)))
        keys = tuple(range(len(rows)))
        doubled = [[2 * a for a in row] for row in rows]
        once = zverify._z_span(keys[:k], keys, rows, None)
        twice = zverify._z_span(keys[:k], keys, doubled, None)
        assert (twice.verdict, twice.coordinates, twice.rank_full, twice.rank_candidate) == (
            once.verdict, once.coordinates, once.rank_full, once.rank_candidate
        )
        # hnf([2C | I]) is hnf([C | I]) with its C part doubled
        m = len(rows[0])
        H = hnf(augmented(rows[:k]))
        assert hnf(augmented(doubled[:k])) == [[2 * a for a in h[:m]] + h[m:] for h in H]


def make_matrix(rows):
    keys = tuple(f"r{i}" for i in range(len(rows)))
    ncols = len(rows[0])
    return ValueMatrix(keys, tuple(f"c{j}" for j in range(ncols)), tuple(tuple(rows[i]) for i in range(len(rows))))


def random_span_cases():
    """300 small (candidate rows, target row) pairs; half the targets lie in the span."""
    rng = random.Random(7)
    for _ in range(300):
        k = rng.randrange(1, 4)
        ncols = rng.randrange(1, 5)
        cand = [[rng.randrange(-3, 4) for _ in range(ncols)] for _ in range(k)]
        coeffs = [rng.randrange(-3, 4) for _ in range(k)]
        if rng.random() < 0.5:
            target = [sum(c * row[j] for c, row in zip(coeffs, cand)) for j in range(ncols)]
        else:
            target = [rng.randrange(-6, 7) for _ in range(ncols)]
        yield cand, target


class TestZSpanEqual:

    def test_identity(self):
        m = make_matrix([[num(1), I], [num(1), -I]])
        rep = z_span_equal(("r0", "r1"), m)
        assert rep.verdict and rep.coordinates == {}

    def test_sum_relation(self):
        m = make_matrix([[num(1), I], [num(1), -I], [num(2), num(0)]])
        rep = z_span_equal(("r0", "r1"), m)
        assert rep.verdict
        assert rep.coordinates == {"r2": (1, 1)}

    def test_non_integral_fails(self):
        m = make_matrix([[num(2), num(0)], [num(1), I]])
        rep = z_span_equal(("r0",), m)
        assert not rep.verdict
        assert rep.coordinates == {"r1": None}

    def test_dependent_candidates_fail(self):
        m = make_matrix([[num(1), num(1)], [num(2), num(2)], [num(3), num(3)]])
        rep = z_span_equal(("r0", "r1"), m)
        assert not rep.verdict
        assert rep.rank_candidate == 1

    def test_no_candidates(self):
        # every non-candidate row has a key: () for a zero row, None for any other
        rep = z_span_equal((), make_matrix([[num(1)], [num(0)]]))
        assert not rep.verdict and rep.coordinates == {"r0": None, "r1": ()}
        assert (rep.rank_candidate, rep.rank_full) == (0, 1)
        rep = z_span_equal((), make_matrix([[num(0)], [num(0)]]))
        assert rep.verdict and rep.coordinates == {"r0": (), "r1": ()} and rep.rank_full == 0

    def test_missing_candidate_row(self):
        m = make_matrix([[num(1), num(1)]])
        with pytest.raises(ValueError):
            z_span_equal(("nope",), m)

    def test_against_bounded_search(self):
        for cand, target in random_span_cases():
            k, ncols = len(cand), len(target)
            rows = cand + [target]
            m = make_matrix([[num(v) for v in row] for row in rows])
            rep = z_span_equal(tuple(f"r{i}" for i in range(k)), m)
            got = rep.coordinates[f"r{k}"]
            if got is not None:
                # self-verifying: the reported coordinates must reproduce the row
                assert all(
                    sum(c * row[j] for c, row in zip(got, cand)) == target[j]
                    for j in range(ncols)
                )
            else:
                assert bounded_combination(cand, target, 9) is None


class TestVerifyBasicSet:
    def test_micro_instance(self):
        rep = verify_basic_set(BlockId(SYM, 3, BarPartition(()), 1))
        assert rep.verdict
        ((label, coords),) = rep.coordinates.items()
        assert label.lam.parts == (3,) and coords == (1, 1)

    def test_defect_zero(self):
        rep = verify_basic_set(BlockId(SYM, 3, BarPartition((1,)), 0))
        assert rep.verdict and rep.rank_full == 1
        rep = verify_basic_set(BlockId(SYM, 3, BarPartition((5, 2)), 0))
        assert rep.verdict and rep.rank_full == 2  # associate pair, one block group

    def test_core1_w2(self):
        rep = verify_basic_set(BlockId(SYM, 3, BarPartition((1,)), 2))
        assert rep.verdict
        for label, coords in rep.coordinates.items():
            assert coords is not None and all(isinstance(c, int) for c in coords)

    @pytest.mark.parametrize("group", [SYM, ALT])
    def test_rank_ties_to_count(self, group):
        for p in (3, 5):
            for n in range(1, 11):
                for b, _ in block_partition(group, n, p):
                    rep = verify_basic_set(b)
                    assert rep.verdict
                    rank = len(hnf(block_table(b).rows))
                    assert rep.rank_full == rank == len(basic_set(b)) == brauer_count(b)

    def test_alt_n6_golden_block(self):
        # the weight-2 block of the alternating cover at n=6, p=3: split
        # 5-cycle branches carry (-1 +- sqrt5)/2, the even type carries -+sqrt2
        b = BlockId(ALT, 3, BarPartition(()), 2)
        m = restricted_matrix(b)
        assert [(c.pi, c.branch) for c in m.classes] == [
            ((5, 1), 1),
            ((5, 1), 2),
            ((4, 2), 0),
            ((1,) * 6, 0),
        ]
        rows = {(x.lam.parts, x.tag): r for x, r in zip(m.row_keys, m.entries)}
        half = Fraction(1, 2)
        golden_plus = Exact.from_rational(-half) + Exact.sqrt_int(5) * -half
        golden_minus = Exact.from_rational(-half) + Exact.sqrt_int(5) * half
        assert rows[((5, 1), PLUS)] == (golden_plus, golden_minus, num(0), num(8))
        assert rows[((5, 1), MINUS)] == (golden_minus, golden_plus, num(0), num(8))
        root2 = Exact.sqrt_int(2)
        assert rows[((4, 2), PLUS)] == (num(0), num(0), -root2, num(10))
        assert rows[((4, 2), MINUS)] == (num(0), num(0), root2, num(10))
        assert rows[((6,), SELF)] == (num(1), num(1), num(0), num(4))
        rep = verify_basic_set(b)
        assert rep.verdict and rep.rank_full == 4
        assert all(coords == (-1, -1, 1, 1) for coords in rep.coordinates.values())

    def test_sym_n30_p5_principal_block(self):
        # 236 labels over 135 integer columns: the first-nonzero pivot took
        # 30 to 50 s on the HNF of its [C | I]
        rep = verify_basic_set(BlockId(SYM, 5, BarPartition(()), 6))
        assert rep.verdict
        assert rep.rank_candidate == rep.rank_full == 65
        assert len(rep.coordinates) == 236 - 65

    def test_p11_blocks(self):
        for group in (SYM, ALT):
            for n in (11, 12):
                for b, _ in block_partition(group, n, 11):
                    rep = verify_basic_set(b)
                    assert rep.verdict
                    assert rep.rank_full == len(hnf(block_table(b).rows)) == brauer_count(b)

    def test_alt_verdict_invariant_under_pair_swap(self):
        # swapping the two constituents permutes candidate rows; the span is unchanged
        for n in (6, 7):
            for b, _ in block_partition(ALT, n, 3):
                m = restricted_matrix(b)
                swapped_keys = []
                for x in m.row_keys:
                    if x.tag == SELF:
                        swapped_keys.append(x)
                    else:
                        swapped_keys.append(
                            SpinLabel(x.group, x.lam, MINUS if x.tag == PLUS else PLUS)
                        )
                perm = [m.row_keys.index(x) for x in swapped_keys]
                m2 = ValueMatrix(m.row_keys, m.classes, tuple(m.entries[i] for i in perm))
                cand = tuple(
                    x for x in m.row_keys if x in set(basic_set(b))
                )
                assert z_span_equal(cand, m).verdict == z_span_equal(cand, m2).verdict


class TestCertificate:
    def test_report_carries_the_table_its_relations_hold_on(self):
        # the report alone certifies the verdict: its table holds twice each
        # value, and every relation holds exactly on the table's rows
        blocks = 0
        for group in (SYM, ALT):
            for p in (3, 5, 7):
                for n in range(1, 17):
                    for b, _ in block_partition(group, n, p):
                        rep = verify_basic_set(b)
                        table = rep.table
                        m = restricted_matrix(b)
                        rows, _, den = integer_expansion(m)
                        assert (table.row_keys, table.classes) == (m.row_keys, m.classes), b
                        assert [list(r) for r in table.rows] == [[Fraction(2 * a, den) for a in r] for r in rows], b
                        by_key = dict(zip(table.row_keys, table.rows))
                        C = [by_key[x] for x in rep.candidates]
                        assert rep.verdict and len(rep.coordinates) == len(table.rows) - len(C), b
                        for key, coords in rep.coordinates.items():
                            combination = tuple(sum(c * a for c, a in zip(coords, col)) for col in zip(*C))
                            assert combination == by_key[key], (b, key)
                        blocks += 1
        assert blocks == 284


class TestIntegerExpansion:
    def test_shared_denominator(self):
        m = ValueMatrix(
            ("a",),
            ("c0", "c1"),
            ((num(Fraction(1, 2)), Exact.sqrt_int(3) * Fraction(1, 3)),),
        )
        rows, columns, den = integer_expansion(m)
        assert den == 6
        assert rows == [[3, 2]]
        assert columns == [(0, (1, 0)), (1, (3, 0))]

    def test_all_zero_matrix_has_no_columns(self):
        m = ValueMatrix(("a", "b"), ("c0",), ((num(0),), (num(0),)))
        assert integer_expansion(m) == ([[], []], [], 1)
        rep = z_span_equal(("a",), m)
        assert not rep.verdict and rep.coordinates == {"b": (0,)}
        assert rep.rank_full == rep.rank_candidate == 0


class TestOracles:
    def test_members_and_sparse_columns_match_the_oracles(self, monkeypatch):
        from spinbars import zverify

        for group in (SYM, ALT):
            for p in (3, 5, 7):
                for n in range(1, 15):
                    for b, members in block_partition(group, n, p):
                        assert members == block_members(b) == block_members_by_scan(b)
                        m = restricted_matrix(b)
                        sparse = z_span_equal(basic_set(b), m)
                        with monkeypatch.context() as patch:
                            patch.setattr(zverify, "integer_expansion", dense_integer_expansion)
                            dense = z_span_equal(basic_set(b), m)
                        table = verify_basic_set(b)
                        assert (sparse.verdict, sparse.coordinates, sparse.rank_full, sparse.rank_candidate) == (
                            dense.verdict, dense.coordinates, dense.rank_full, dense.rank_candidate
                        ) == (table.verdict, table.coordinates, table.rank_full, table.rank_candidate), b

    def test_integer_table_and_rendering_match_the_algnum_path(self):
        from spinbars.cli import _matrix_text

        blocks = two_unit = 0
        for group in (SYM, ALT):
            for p in (3, 5, 7, 11):
                for n in range(1, 15):
                    for b, _ in block_partition(group, n, p):
                        table = block_table(b)
                        m = restricted_matrix(b)
                        rows, columns, den = integer_expansion(m)
                        assert (table.row_keys, table.classes) == (m.row_keys, m.classes), b
                        # the table holds twice each value: twice the rows over den
                        assert den in (1, 2) and list(table.columns) == columns, b
                        assert [[den * h for h in r] for r in table.rows] == [[2 * a for a in r] for r in rows], b
                        values = [[Exact.of(v).to_json() for v in row] for row in m.entries]
                        assert values_json(table) == values, b
                        matrix = [
                            {"label": {"partition": list(x.lam.parts), "tag": x.tag}, "values": row}
                            for x, row in zip(m.row_keys, values)
                        ]
                        assert "".join(_matrix_text(table)) == json.dumps(matrix, sort_keys=True, separators=(",", ":")), b
                        # a class with two unit columns renders from a slice of each row, not one integer
                        units = Counter(j for j, _ in table.columns)
                        two_unit += sum(1 for count in units.values() if count == 2)
                        if n <= 12:
                            # every split class: the isometry table
                            whole = split_table(b)
                            values = split_value_matrix(b)
                            rows, columns, den = integer_expansion(values)
                            assert (whole.row_keys, whole.classes) == (values.row_keys, values.classes), b
                            assert den in (1, 2) and list(whole.columns) == columns, b
                            assert [[den * h for h in r] for r in whole.rows] == [[2 * a for a in r] for r in rows], b
                        blocks += 1
        assert blocks == 388 and two_unit > 0


class TestBatches:
    """Consecutive defect-zero blocks share their class columns; every table is the one its block's rows give alone."""

    GRID = [(n, p) for p in (3, 5, 7, 11, 13) for n in range(1, 15)] + [(25, 11)]

    def test_batched_tables_match_the_one_block_oracle(self):
        blocks = shared = 0
        for group in (SYM, ALT):
            for n, p in self.GRID:
                found = block_partition(group, n, p)
                regular = tuple(c for c in split_classes(n, group=group) if c.is_regular(p))
                want = [integer_table_by_block(members, regular) for _, members in found]
                chosen = [b for b, _ in found]
                assert list(block_tables(chosen)) == want, (group, n, p)
                assert [block_table(b) for b in chosen] == want, (group, n, p)
                if n <= 12:
                    every = split_classes(n, group=group)
                    assert [split_table(b) for b in chosen] == [
                        integer_table_by_block(members, every) for _, members in found
                    ], (group, n, p)
                shared += sum(len(batch) > 1 for batch in zverify._batches(chosen))
                blocks += len(found)
        assert blocks == 666 and shared == 74

    def test_batch_rule(self):
        # runs of defect-zero blocks, no more rows than the largest block; any other block alone
        for group in (SYM, ALT):
            for n, p in ((14, 13), (25, 11), (16, 7)):
                chosen = [b for b, _ in block_partition(group, n, p)]
                members = [block_members(b) for b in chosen]
                cap = max(map(len, members))
                batches = list(zverify._batches(chosen))
                assert [keys for batch in batches for keys in batch] == members
                block_of = dict(zip(members, chosen))
                for batch in batches:
                    if len(batch) > 1:
                        assert all(block_of[keys].is_defect_zero() for keys in batch)
                        assert sum(map(len, batch)) <= cap
                # a batch ends only where the next block could not join it
                for before, after in zip(batches, batches[1:]):
                    joins = block_of[before[-1]].is_defect_zero() and block_of[after[0]].is_defect_zero()
                    assert not joins or sum(map(len, before)) + len(after[0]) > cap

    def test_rendering_matches_the_per_cell_oracle(self):
        from spinbars.cli import _matrix_text

        tables = two_unit = zero_runs = 0
        for group in (SYM, ALT):
            for p in (3, 5, 7):
                for n in range(1, 13):
                    chosen = [b for b, _ in block_partition(group, n, p)]
                    for table in [*block_tables(chosen), *map(split_table, chosen)]:
                        assert list(_matrix_text(table)) == list(matrix_text_by_cell(table)), (group, n, p)
                        units = Counter(j for j, _ in table.columns)
                        two_unit += sum(1 for count in units.values() if count == 2)
                        zero_runs += len(table.classes) > len(units)
                        tables += 1
        assert tables == 2 * 170 and two_unit > 0 and zero_runs > 0


class TestTransformOracle:
    def test_blocks_and_random_rows_match_the_transform_oracle(self):
        blocks = 0
        for group in (SYM, ALT):
            for p in (3, 5, 7):
                for n in range(1, 17):
                    for b, _ in block_partition(group, n, p):
                        table = block_table(b)
                        rep = verify_basic_set(b)
                        assert (rep.verdict, rep.coordinates, rep.rank_full, rep.rank_candidate) == z_span_by_transform(
                            basic_set(b), table.row_keys, table.rows
                        ), b
                        blocks += 1
        assert blocks == 284
        independent = 0
        for cand, target in random_span_cases():
            k = len(cand)
            m = make_matrix([[num(v) for v in row] for row in cand + [target]])
            keys = m.row_keys[:k]
            rep = z_span_equal(keys, m)
            int_rows, _, _ = integer_expansion(m)
            verdict, coordinates, rank_full, rank = z_span_by_transform(keys, m.row_keys, int_rows)
            assert (rep.verdict, rep.rank_full, rep.rank_candidate) == (verdict, rank_full, rank)
            if rank == k:
                # coordinates are unique once the candidates are independent
                assert rep.coordinates == coordinates
                independent += 1
            else:
                # both solve y * C = target, not necessarily with the same y
                assert (rep.coordinates[f"r{k}"] is None) == (coordinates[f"r{k}"] is None)
        assert independent == 226


def perturbed(table, key, j, delta):
    """A copy of the table with delta added to column j of the row of key."""
    rows = [list(r) for r in table.rows]
    rows[table.row_keys.index(key)][j] += delta
    return table._replace(rows=tuple(tuple(r) for r in rows))


def fault_each_table(monkeypatch, fault):
    """Patch block_tables, the one seam of block_table and of the CLI's tables: each table is fault(block, table)."""
    real_tables = zverify.block_tables

    def faulty_tables(blocks):
        return map(fault, blocks, real_tables(blocks))

    monkeypatch.setattr(zverify, "block_tables", faulty_tables)


def outside_the_span(b, table):
    """Column 0 of the block's first non-candidate row gains p."""
    others = [x for x in table.row_keys if x not in set(basic_set(b))]
    return perturbed(table, others[0], 0, b.p) if others else table


def fault_outside_the_span(monkeypatch):
    """Patch the tables: column 0 of each block's first non-candidate row gains p."""
    fault_each_table(monkeypatch, outside_the_span)


# sha256 and exit status of the fail outputs at n=10, p=3 under fault_outside_the_span:
# the HNF's coordinates and ranks, pinned by digest rather than against another HNF run
FAIL_SHA256 = {
    ("verify --group sym", "json"): (1, "06fd72d06347134bf37d51e5870ae6b0d77d52969104678f320320dfe2ae0093"),
    ("verify --group sym", "table"): (1, "e968572452ffd04af4df7475ec408bdcb2840e8c56ae6a34598f850dae420ef9"),
    ("verify --group alt", "json"): (1, "499af49beae758ca4d184bf970f241bc7dbdc3f3404692b6448484b439f617f0"),
    ("verify --group alt", "table"): (1, "c6dbbcb16829a5bc7399841ec8e6a081c8bfebfba70e4abd5f27be149f6cc053"),
    ("counts --group sym", "json"): (0, "ca3067309f27d451a771b8a9f7a32fc5e368fd0a52775ed44fc617d350b87440"),
}


def small_blocks(min_weight):
    for group in (SYM, ALT):
        for p in (3, 5):
            for n in range(1, 11):
                for b, _ in block_partition(group, n, p):
                    if b.weight >= min_weight:
                        yield b


class TestFaultInjection:
    def test_basic_set_entry_plus_p_fails(self, monkeypatch):
        # weight 2 and up: at weight 1 a perturbed basis can still span, e.g.
        # sym p=3 core (1): (2, 2), (1, 2) span (0, 4) as (-1, 2), (1, 2) did
        checked = 0
        for b in small_blocks(2):
            table = block_table(b)
            for j in range(len(table.columns)):
                faulted = perturbed(table, basic_set(b)[0], j, b.p)
                with monkeypatch.context() as patch:
                    patch.setattr(zverify, "block_table", lambda _: faulted)
                    assert not verify_basic_set(b).verdict, (b, j)
                checked += 1
        assert checked == 68

    def test_duplicated_candidate_fails(self, monkeypatch):
        solved = 0
        for b in small_blocks(1):
            cand = basic_set(b)
            k = len(cand)
            if k < 2:
                continue
            table = block_table(b)
            rows = list(table.rows)
            rows[table.row_keys.index(cand[1])] = rows[table.row_keys.index(cand[0])]
            faulted = table._replace(rows=tuple(rows))
            with monkeypatch.context() as patch:
                patch.setattr(zverify, "block_table", lambda _: faulted)
                rep = verify_basic_set(b)
            assert not rep.verdict and rep.rank_candidate == k - 1, b
            assert rep.rank_full == len(hnf(rows)), b
            C = [rows[table.row_keys.index(x)] for x in cand]
            for key, coords in rep.coordinates.items():
                if coords is not None:
                    target = rows[table.row_keys.index(key)]
                    assert all(sum(c * row[j] for c, row in zip(coords, C)) == t for j, t in enumerate(target)), b
                    solved += 1
        assert solved > 0

    def test_perturbing_one_of_two_equal_targets(self, monkeypatch):
        # the pass path solves equal rows once: a perturbed twin must get its own coordinates
        rows = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 1, 0]]
        m = make_matrix([[num(v) for v in row] for row in rows])
        assert z_span_equal(("r0", "r1"), m).coordinates == {"r2": (1, 1), "r3": (1, 1)}
        rows[3][2] += 1
        m = make_matrix([[num(v) for v in row] for row in rows])
        assert z_span_equal(("r0", "r1"), m).coordinates == {"r2": (1, 1), "r3": None}
        perturbed_twins = 0
        for b in small_blocks(1):
            table = block_table(b)
            rep = verify_basic_set(b)
            twins = {}
            for key, row in zip(table.row_keys, table.rows):
                if key in rep.coordinates:
                    twins.setdefault(row, []).append(key)
            keys = next((keys for keys in twins.values() if len(keys) > 1), None)
            if keys is None:
                continue
            faulted = perturbed(table, keys[-1], 0, 1)
            with monkeypatch.context() as patch:
                patch.setattr(zverify, "block_table", lambda _: faulted)
                bad = verify_basic_set(b)
            # only the perturbed row's coordinates move, to what the transform oracle finds
            _, expected, _, _ = z_span_by_transform(basic_set(b), faulted.row_keys, faulted.rows)
            assert bad.coordinates == expected == {**rep.coordinates, keys[-1]: expected[keys[-1]]}, b
            if expected[keys[-1]] is None:
                assert not bad.verdict, b
                perturbed_twins += 1
        assert perturbed_twins == 23

    def test_counts_prints_the_full_rank_of_a_fail(self, capsys, monkeypatch):
        from spinbars import cli

        def faulty_table(b, table):
            return perturbed(table, basic_set(b)[0], 0, b.p)

        blocks = [b for b, _ in block_partition(SYM, 10, 3)]
        faulted = [faulty_table(b, block_table(b)) for b in blocks]
        fault_each_table(monkeypatch, faulty_table)
        assert cli.run(["counts", "--n", "10", "--p", "3"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert [r["rank"] for r in results] == [len(hnf(table.rows)) for table in faulted]
        assert any(not verify_basic_set(b).verdict for b in blocks)
        assert any(r["rank"] != r["basic_set_size"] for r in results)


def hnf_report(candidate_keys, row_keys, int_rows, table=None):
    """The Z-span report of the HNF decision alone, the oracle of the modular pass path."""
    with mock.patch.object(zverify, "_modular_pass", lambda *_: None):
        return zverify._z_span(tuple(candidate_keys), tuple(row_keys), int_rows, table)


def counting(monkeypatch, name):
    """Wrap zverify.<name> to count its calls; returns the counter."""
    calls = []
    real = getattr(zverify, name)

    def wrapped(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(zverify, name, wrapped)
    return calls


def refuse(*_):
    raise AssertionError("a pass must not reach the HNF")


class TestModularPass:
    """A pass is decided mod Q and proved by y * C = t; the HNF decides the rest, with the same reports."""

    def test_every_small_block_passes_without_the_hnf_and_matches_it(self, monkeypatch):
        blocks = 0
        for group in (SYM, ALT):
            for p in (3, 5, 7):
                for n in range(1, 17):
                    for b, _ in block_partition(group, n, p):
                        table = block_table(b)
                        oracle = hnf_report(basic_set(b), table.row_keys, table.rows, table)
                        with monkeypatch.context() as patch:
                            patch.setattr(zverify, "hnf", refuse)
                            assert verify_basic_set(b) == oracle, b
                        blocks += 1
        assert blocks == 284

    def test_random_span_cases_match_the_hnf_path(self):
        for cand, target in random_span_cases():
            rows = cand + [target]
            keys = tuple(range(len(rows)))
            cands = keys[: len(cand)]
            assert zverify._z_span(cands, keys, rows, None) == hnf_report(cands, keys, rows)

    @given(integer_matrices(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_matrices_match_the_hnf_path(self, rows, data):
        k = data.draw(st.integers(0, len(rows)))
        keys = tuple(range(len(rows)))
        assert zverify._z_span(keys[:k], keys, rows, None) == hnf_report(keys[:k], keys, rows)

    def test_deep_grid_passes_without_the_hnf(self, monkeypatch):
        monkeypatch.setattr(zverify, "hnf", refuse)
        monkeypatch.setattr(zverify, "integral_coordinates", refuse)
        blocks = 0
        for group, n, p in ((SYM, 25, 5), (ALT, 29, 3)):
            for b, _ in block_partition(group, n, p):
                rep = verify_basic_set(b)
                k = len(basic_set(b))
                assert rep.verdict and rep.rank_full == rep.rank_candidate == k == brauer_count(b), b
                blocks += 1
        assert blocks == 11

    def test_signed_packing_of_one_two_and_three_words(self):
        rng = random.Random(11)
        for words in (1, 2, 3):
            top = 2 ** (64 * words - 1) - 1
            rows = [[top, -top, 0, -1, 1, 2**63, -(2**63)], [rng.randint(-top, top) for _ in range(7)]]
            if words == 1:
                rows = [[max(-top, min(top, a)) for a in row] for row in rows]
            packed = zverify._signed_packing(rows, words)
            assert packed == [sum(a << (64 * words * j) for j, a in enumerate(row)) for row in rows]

    def test_large_entries_take_more_words(self, monkeypatch):
        # words are the fewest whose signed fields hold |y|_1 * max|C| + max|C|
        cases = [
            ([[2**60, 1, 0], [3, 2**20, -5], [0, 7, 1]], (1, -2, 3), 1),
            ([[2**61, 1, 0], [3, 2**20, -5], [0, 7, 1]], (1, -2, 3), 2),
            ([[2**100, 1, 0], [3, 2**20, -5], [0, 7, 1]], (5, 0, -1), 2),
            ([[2**100, 1, 0], [3, 2**20, -5], [0, 7, 1]], (2**40, 1, 1), 3),
            ([[2**100, 1, 0], [3, 2**130, -5], [0, 7, 1]], (1, -2, 3), 3),
        ]
        for cand, y, words in cases:
            used = counting(monkeypatch, "_signed_packing")
            target = [sum(c * row[j] for c, row in zip(y, cand)) for j in range(3)]
            rows = cand + [target]
            keys = (0, 1, 2, 3)
            rep = zverify._z_span(keys[:3], keys, rows, None)
            assert rep.verdict and rep.coordinates == {3: y}
            assert rep == hnf_report(keys[:3], keys, rows)
            assert {args[1] for args in used} == {words}
            monkeypatch.undo()

    def test_small_modulus_dividing_a_minor_falls_back(self, monkeypatch):
        # det [[1, 1], [1, 4]] = 3: mod 3 the candidates have one pivot, over Z they are a basis
        rows = [[1, 1], [1, 4], [2, 5]]
        keys = (0, 1, 2)
        honest = zverify._z_span(keys[:2], keys, rows, None)
        assert honest.verdict and honest.coordinates == {2: (1, 1)}
        monkeypatch.setattr(zverify, "Q", 3)
        assert zverify._echelon_mod_q(rows[:2], 2) is None
        calls = counting(monkeypatch, "hnf")
        assert zverify._z_span(keys[:2], keys, rows, None) == honest
        assert calls

    def test_coordinates_off_by_the_modulus_fail_the_exact_check(self, monkeypatch):
        real = zverify._lifted_coordinates
        checked = 0
        for shift in (zverify.Q, -zverify.Q):

            def corrupted(*args):
                y = real(*args)
                return (y[0] + shift, *y[1:])

            for b in small_blocks(1):
                table = block_table(b)
                cand = set(basic_set(b))
                targets = list(dict.fromkeys(r for x, r in zip(table.row_keys, table.rows) if x not in cand))
                if not targets:
                    continue
                honest = verify_basic_set(b)
                with monkeypatch.context() as patch:
                    patch.setattr(zverify, "_lifted_coordinates", corrupted)
                    C = [table.rows[table.row_keys.index(x)] for x in basic_set(b)]
                    assert zverify._modular_pass(C, targets, len(table.columns)) is None, b
                    calls = counting(patch, "hnf")
                    assert verify_basic_set(b) == honest and calls, b
                checked += 1
        assert checked == 2 * 36

    def test_target_outside_the_span_prints_the_hnf_fail(self, capsys, monkeypatch):
        from spinbars import cli

        fault_outside_the_span(monkeypatch)
        argv = ["verify", "--group", "sym", "--n", "10", "--p", "3"]
        # a fail exits 1
        assert cli.run(argv) == 1
        modular = capsys.readouterr().out
        monkeypatch.setattr(zverify, "_modular_pass", lambda *_: None)
        assert cli.run(argv) == 1
        assert modular == capsys.readouterr().out
        assert '"fail":2' in modular

    def test_hnf_fails_print_pinned_bytes(self, capsys, monkeypatch):
        from spinbars import cli

        fault_outside_the_span(monkeypatch)
        for (verb, fmt), (status, digest) in FAIL_SHA256.items():
            argv = f"{verb} --n 10 --p 3 --format {fmt}"
            assert cli.run(argv.split()) == status, argv
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, argv

    def test_hnf_solves_each_distinct_target_once(self, monkeypatch):
        fault_outside_the_span(monkeypatch)
        b = BlockId(SYM, 3, BarPartition((1,)), 3)
        table = zverify.block_table(b)
        chosen = set(basic_set(b))
        targets = [row for x, row in zip(table.row_keys, table.rows) if x not in chosen]
        assert (len(targets), len(set(targets))) == (6, 5)
        calls = counting(monkeypatch, "integral_coordinates")
        assert not verify_basic_set(b).verdict
        assert len(calls) == 5

    def test_update_limit_below_k_falls_back(self, monkeypatch):
        monkeypatch.setattr(zverify, "_MAX_UPDATES", 1)
        fell_back = 0
        for b in small_blocks(1):
            table = block_table(b)
            with monkeypatch.context() as patch:
                calls = counting(patch, "hnf")
                rep = verify_basic_set(b)
            assert rep == hnf_report(basic_set(b), table.row_keys, table.rows, table), b
            assert bool(calls) == (len(basic_set(b)) > 1), b
            fell_back += bool(calls)
        assert fell_back > 0
