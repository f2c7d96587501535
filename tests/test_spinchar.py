import math
from fractions import Fraction
from operator import mul

import pytest

from spinbars.algnum import AlgNum, unit_product
from spinbars.barcomb import BarPartition, Partition, bar_partitions, partitions, sigma
from spinbars.blocks import BlockId, block_partition
from spinbars.spinchar import (
    ALT,
    MINUS,
    PLUS,
    SELF,
    SYM,
    SpinLabel,
    char_value,
    half_columns,
    is_odd_type,
    labels,
    split_classes,
    z_cycle,
)
from spinbars.zverify import block_table, split_table
from oracles import (
    I,
    Exact,
    bits_of,
    degree,
    epsilon_twist,
    half_coefficients_by_cell,
    inner_product,
    odd_column_by_adding,
    odd_value_by_removal,
    split_class_types_by_filter,
    value_vector,
)
from qfunction_oracle import odd_partitions, spin_value


def bar_length_degree(lam: BarPartition) -> int:
    """Closed-form spin degree; independent check on the recursion."""
    n, parts = lam.n, lam.parts
    d = Fraction(2 ** ((n - lam.length) // 2) * math.factorial(n))
    for a in parts:
        d /= math.factorial(a)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            d *= Fraction(parts[i] - parts[j], parts[i] + parts[j])
    assert d.denominator == 1
    return int(d)


def find_class(classes, pi, branch=None):
    for c in classes:
        if c.pi == pi and (branch is None or c.branch == branch):
            return c
    raise LookupError((pi, branch))


class TestLabels:
    def test_sym_three(self):
        got = labels(SYM, 3)
        assert [(x.lam.parts, x.tag) for x in got] == [
            ((3,), SELF),
            ((2, 1), PLUS),
            ((2, 1), MINUS),
        ]

    def test_sym_one(self):
        assert [(x.lam.parts, x.tag) for x in labels(SYM, 1)] == [((1,), SELF)]

    def test_alt_three(self):
        got = labels(ALT, 3)
        assert [(x.lam.parts, x.tag) for x in got] == [
            ((3,), PLUS),
            ((3,), MINUS),
            ((2, 1), SELF),
        ]

    def test_tag_validation(self):
        with pytest.raises(ValueError):
            SpinLabel(SYM, BarPartition((3,)), PLUS)
        with pytest.raises(ValueError):
            SpinLabel(ALT, BarPartition((2, 1)), PLUS)

    def test_partition_must_be_a_bar_partition(self):
        # (2, 2) has no slot and no value; its degree raised KeyError far from the cause
        for lam in (Partition((2, 2)), Partition((2, 1)), (2, 1)):
            with pytest.raises(TypeError):
                SpinLabel(SYM, lam, SELF)

    def test_counts(self):
        # one label per positive-sign partition plus two per negative, and dually
        for n in range(1, 11):
            plus = sum(1 for lam in bar_partitions(n) if sigma(lam) == 1)
            minus = len(bar_partitions(n)) - plus
            assert len(labels(SYM, n)) == plus + 2 * minus
            if n > 1:
                assert len(labels(ALT, n)) == 2 * plus + minus


class TestEpsilonTwist:
    def test_examples(self):
        x = SpinLabel(SYM, BarPartition((2, 1)), PLUS)
        assert epsilon_twist(x).tag == MINUS
        y = SpinLabel(SYM, BarPartition((3,)), SELF)
        assert epsilon_twist(y) == y

    def test_involution(self):
        for group in (SYM, ALT):
            for n in range(1, 11):
                for x in labels(group, n):
                    assert epsilon_twist(epsilon_twist(x)) == x


class TestSplitClasses:
    def test_n3(self):
        # one class x per central pair {x, zx}
        cls = split_classes(3)
        assert len(cls) == 3
        assert [c.pi for c in cls] == [(3,), (2, 1), (1, 1, 1)]

    def test_regular_filter(self):
        cls = block_table(BlockId(SYM, 3, BarPartition(()), 1)).classes
        assert [c.pi for c in cls] == [(2, 1), (1, 1, 1)]

    def test_centralizer_of_21(self):
        c = find_class(split_classes(3), (2, 1))
        assert c.centralizer_order == 2 * 2 * 1

    def test_sym_class_equation(self):
        # split and non-split classes together must cover the whole cover group;
        # each split class x stands for x and zx, of the same size
        for n in range(1, 6):
            order = 2 * math.factorial(n)
            total = 0
            split_types = set()
            for c in split_classes(n):
                total += 2 * (order // c.centralizer_order)
                split_types.add(c.pi)
            for mu in partitions(n):
                if mu.parts not in split_types:
                    total += order // z_cycle(mu.parts)
            assert total == order

    @pytest.mark.parametrize("group", [SYM, ALT])
    def test_match_filter_over_all_partitions(self, group):
        # types, order, branches and centralizer orders of the filter the
        # class list replaced, which tests every partition of n
        for n in range(1, 21):
            got = [(c.pi, c.branch, c.centralizer_order) for c in split_classes(n, group=group)]
            assert got == split_class_types_by_filter(group, n), (group, n)

    def test_alt_class_pairs_match_label_count(self):
        for n in range(2, 9):
            pairs = len(split_classes(n, group=ALT))
            assert pairs == len(labels(ALT, n))


class TestCharValues:
    def test_pair_value_on_own_class(self):
        cls = split_classes(3)
        plus = SpinLabel(SYM, BarPartition((2, 1)), PLUS)
        minus = SpinLabel(SYM, BarPartition((2, 1)), MINUS)
        c = find_class(cls, (2, 1))
        assert char_value(plus, c) == I
        assert char_value(minus, c) == -I
        # at the central translate z.c both values change sign
        assert -Exact.of(char_value(plus, c)) == -I
        assert -Exact.of(char_value(minus, c)) == I

    def test_self_vanishes_on_pair_class(self):
        cls = split_classes(3)
        x = SpinLabel(SYM, BarPartition((3,)), SELF)
        assert not char_value(x, find_class(cls, (2, 1)))

    def test_kronecker_on_strict_negative_classes(self):
        for n in range(2, 8):
            cls = split_classes(n)
            negatives = [c for c in cls if not is_odd_type(c.pi)]
            for x in labels(SYM, n):
                for c in negatives:
                    v = char_value(x, c)
                    if x.tag == SELF or x.lam.parts != c.pi:
                        assert not v, (x, c)
                    else:
                        assert v

    def test_pair_agreement_on_odd_classes(self):
        for n in range(2, 9):
            cls = [c for c in split_classes(n) if is_odd_type(c.pi)]
            for lam in bar_partitions(n):
                if sigma(lam) == -1:
                    plus = SpinLabel(SYM, lam, PLUS)
                    minus = SpinLabel(SYM, lam, MINUS)
                    for c in cls:
                        assert char_value(plus, c) == char_value(minus, c)

    def test_basic_spin_degree(self):
        for n in range(1, 10):
            lam = BarPartition((n,))
            tag = SELF if sigma(lam) == 1 else PLUS
            assert degree(SpinLabel(SYM, lam, tag)) == 2 ** ((n - 1) // 2)

    def test_degree_examples(self):
        assert degree(SpinLabel(SYM, BarPartition((3,)), SELF)) == 2
        assert degree(SpinLabel(SYM, BarPartition((2, 1)), PLUS)) == 1
        assert degree(SpinLabel(SYM, BarPartition((2, 1)), MINUS)) == 1
        assert degree(SpinLabel(SYM, BarPartition((4,)), PLUS)) == 2

    def test_degrees_match_bar_length_formula(self):
        for n in range(1, 9):
            for lam in bar_partitions(n):
                tag = SELF if sigma(lam) == 1 else PLUS
                assert degree(SpinLabel(SYM, lam, tag)) == bar_length_degree(lam)

    def test_size_mismatch_error(self):
        x = SpinLabel(SYM, BarPartition((3,)), SELF)
        with pytest.raises(ValueError):
            char_value(x, find_class(split_classes(4), (3, 1)))
        with pytest.raises(ValueError):
            char_value(x, find_class(split_classes(3, group=ALT), (1, 1, 1)))

    def test_alt_degrees_halve(self):
        for n in range(2, 9):
            for x in labels(ALT, n):
                lam_degree = bar_length_degree(x.lam)
                if x.tag == SELF:
                    assert degree(x) == lam_degree
                else:
                    assert degree(x) * 2 == lam_degree

    def test_split_values_are_algebraic_integers(self):
        # pair values are (a +- delta)/2 with delta^2 = (-1)^m z; integrality
        # of the minimal polynomial needs 4 | a^2 - delta^2
        from spinbars.spinchar import _odd_column

        for n in range(2, 13):
            for slot, lam in enumerate(bar_partitions(n)):
                if sigma(lam) == 1:
                    m = (n - lam.length) // 2
                    z = math.prod(lam.parts)
                    a = _odd_column(lam.parts)[slot] if is_odd_type(lam.parts) else 0
                    assert (a * a - (-1) ** m * z) % 4 == 0, lam
                else:
                    # the paired sym values carry sqrt(z/2), so z must be even
                    assert math.prod(lam.parts) % 2 == 0, lam


class TestOddColumns:
    def test_match_removal_recursion(self):
        # the bar-adding column against the bar-strip removal recursion
        from spinbars.spinchar import _odd_column

        for n in range(17):
            for slot, lam in enumerate(bar_partitions(n)):
                for pi in odd_partitions(n):
                    assert _odd_column(pi)[slot] == odd_value_by_removal(lam.parts, pi), (lam, pi)

    def test_match_the_bit_set_recursion(self):
        # the dense columns built through the shared move tables against the same
        # recursion over bit-set dicts, in every slot of every odd type
        from spinbars.spinchar import _odd_column

        for n in range(25):
            keys = [bits_of(lam.parts) for lam in bar_partitions(n)]
            for pi in odd_partitions(n):
                oracle = odd_column_by_adding(pi)
                assert list(_odd_column(pi)) == [oracle.get(k, 0) for k in keys], pi

    @pytest.mark.parametrize("group", [SYM, ALT])
    def test_columns_hold_one_slot_per_strict_partition(self, group):
        from spinbars.spinchar import _odd_column

        for n in range(13):
            strict = bar_partitions(n)
            assert all(len(_odd_column(pi)) == len(strict) for pi in odd_partitions(n)), n
            if n:
                assert [x.slot for x in labels(group, n)] == [strict.index(x.lam) for x in labels(group, n)], n

    def test_cache_holds_every_suffix_at_n50(self):
        # a table reads its columns in order, so a cache smaller than the number of
        # distinct suffixes would miss on nearly every read; n = 50 needs 8,670
        from spinbars.spinchar import _odd_column

        suffixes = {pi[k:] for pi in odd_partitions(50) for k in range(len(pi) + 1)}
        assert len(suffixes) == 8670
        assert len(suffixes) <= _odd_column.cache_info().maxsize

    def test_cache_holds_every_move_table_at_n50(self):
        # each suffix's column reads the table of its largest part r over the rest's size m
        from spinbars.spinchar import _moves

        pairs = {(sum(pi[k + 1 :]), pi[k]) for pi in odd_partitions(50) for k in range(len(pi))}
        assert len(pairs) == 302
        assert len(pairs) <= _moves.cache_info().maxsize


class TestValueColumns:
    @pytest.mark.parametrize("group", [SYM, ALT])
    def test_columns_match_the_cell_oracle(self, group):
        for n in range(1, 17):
            rows = labels(group, n)
            for c in split_classes(n, group=group):
                columns = half_columns(rows, c)
                assert all(any(col) and len(col) == len(rows) for col in columns.values()), c
                for r, x in enumerate(rows):
                    cell = half_coefficients_by_cell(x, c)
                    assert {unit: col[r] for unit, col in columns.items() if col[r]} == cell, (x, c)
                    assert char_value(x, c) == AlgNum({unit: Fraction(h, 2) for unit, h in cell.items()}), (x, c)

    def test_odd_restriction_value_raises_on_both_paths(self, monkeypatch):
        from spinbars import spinchar

        x = SpinLabel(ALT, BarPartition((5,)), PLUS)
        c = find_class(split_classes(5, group=ALT), (1, 1, 1, 1, 1))
        column = [0] * len(bar_partitions(5))
        column[x.slot] = 1
        monkeypatch.setattr(spinchar, "_odd_column", lambda pi: column)
        messages = []
        for path in (lambda: half_columns((x,), c), lambda: char_value(x, c)):
            with pytest.raises(RuntimeError, match="odd restriction value 1") as exc:
                path()
            messages.append(str(exc.value))
        with pytest.raises(RuntimeError) as exc:
            half_coefficients_by_cell(x, c)
        assert messages == [str(exc.value)] * 2


    def test_closed_form_never_cancels_an_alternating_pair(self):
        # an odd strict lam has sign +1, so on the alternating cover it labels a pair
        # and its type is two classes, both odd and strict: the closed form adds h to
        # the odd part, which is +-1, and shares its unit (1, 0) only with |h| >= 3
        from spinbars.spinchar import _odd_column, _root_term

        types = 0
        for n in range(2, 31):
            for slot, lam in enumerate(bar_partitions(n)):
                pi = lam.parts
                if not is_odd_type(pi):
                    continue
                assert _odd_column(pi)[slot] in (1, -1), pi
                h, unit = _root_term((n - len(pi)) // 2, math.prod(pi))
                if unit == (1, 0):
                    assert abs(h) >= 3, pi
                classes = [c for c in split_classes(n, group=ALT) if c.pi == pi]
                assert [c.branch for c in classes] == [1, 2], pi
                for tag in (PLUS, MINUS):
                    x = SpinLabel(ALT, lam, tag)
                    for c in classes:
                        assert all(any(col) for col in half_columns((x,), c).values()), (x, c)
                types += 1
        assert types == 179


def unit_columns(group: str, n: int) -> tuple[tuple, tuple, list[dict]]:
    """Split classes, labels and per class {unit: column over the labels}, from every block's split table at p = 3."""
    classes = split_classes(n, group=group)
    tables = [split_table(b) for b, _ in block_partition(group, n, 3)]
    rows = tuple(x for t in tables for x in t.row_keys)
    columns = [{} for _ in classes]
    start = 0
    for t in tables:
        for r, values in enumerate(t.rows, start):
            for (j, unit), h in zip(t.columns, values):
                columns[j].setdefault(unit, [0] * len(rows))[r] = h
        start += len(t.rows)
    return classes, rows, columns


def gram_misses(classes, columns, pairs) -> list:
    """The pairs (j, k) of class indices where the sum over every label of h(x_j) * conj h(x_k) is wrong.

    h is twice the value, so the second orthogonality relation makes that
    sum 2 * centralizer order on the diagonal and 0 off it.  A column with
    few nonzero rows (a pair's closed form) is multiplied on those alone.
    """
    terms = [
        [(u, v, [r for r, h in enumerate(v) if h]) for u, v in sorted(col.items())] for col in columns
    ]
    misses = []
    for j, k in pairs:
        total = {}
        for u, a, sa in terms[j]:
            for (d, e), b, sb in terms[k]:
                short = min(sa, sb, key=len)
                dot = sum(a[r] * b[r] for r in short) if len(short) < 8 else sum(map(mul, a, b))
                if dot:
                    c, key = unit_product(u, (d, e))
                    total[key] = total.get(key, 0) + (-c if e else c) * dot
        total = {key: v for key, v in total.items() if v}
        if total != ({(1, 0): 2 * classes[j].centralizer_order} if j == k else {}):
            misses.append((classes[j], classes[k]))
    return misses


class TestValueTables:
    @pytest.mark.parametrize("group", [SYM, ALT])
    def test_columns_are_orthogonal_and_the_identity_column_is_the_degree(self, group):
        # the split tables of every block, read together: orthogonality alone
        # cannot tell two swapped rows apart, the degrees can
        for n in range(1, 31):
            classes, rows, columns = unit_columns(group, n)
            pairs = [(j, k) for j in range(len(classes)) for k in range(j, len(classes))]
            assert gram_misses(classes, columns, pairs) == [], (group, n)
            assert classes[-1].pi == (1,) * n
            assert list(columns[-1]) == [(1, 0)]
            degrees = [bar_length_degree(x.lam) // (1 if x.tag == SELF or group == SYM else 2) for x in rows]
            assert columns[-1][(1, 0)] == [2 * d for d in degrees], (group, n)


class TestAgainstQOracle:
    def test_values_n_le_5(self):
        for n in range(6):
            for lam in bar_partitions(n):
                tag = SELF if sigma(lam) == 1 else PLUS
                x = SpinLabel(SYM, lam, tag) if n else None
                for pi in odd_partitions(n):
                    if n == 0:
                        continue
                    c = find_class(split_classes(n), pi)
                    assert char_value(x, c) == Exact.from_rational(spin_value(lam.parts, pi))


class TestInnerProducts:
    def test_worked_n3(self):
        cls = split_classes(3)
        plus = value_vector(SpinLabel(SYM, BarPartition((2, 1)), PLUS), cls)
        minus = value_vector(SpinLabel(SYM, BarPartition((2, 1)), MINUS), cls)
        assert inner_product(plus, plus, cls) == 1
        assert inner_product(plus, minus, cls) == 0

    def test_index_mismatch(self):
        cls = split_classes(3)
        v = value_vector(SpinLabel(SYM, BarPartition((3,)), SELF), cls)
        with pytest.raises(ValueError):
            inner_product(v, v[:-1], cls)

    @pytest.mark.parametrize("group", [SYM, ALT])
    def test_orthonormality(self, group):
        for n in range(1, 7):
            cls = split_classes(n, group=group)
            vecs = [(x, value_vector(x, cls)) for x in labels(group, n)]
            for i, (x, vx) in enumerate(vecs):
                for y, vy in vecs[i:]:
                    assert inner_product(vx, vy, cls) == (1 if x == y else 0)
