import random
from fractions import Fraction

import pytest

from spinbars import isometry
from spinbars.barcomb import BarPartition, bar_core_quotient, bar_partitions, delta_bar, sigma
from spinbars.blocks import (
    SIDE_G,
    SIDE_H,
    BlockId,
    basic_set,
    block_members,
    block_partition,
    local_basic_labels,
)
from spinbars.isometry import (
    IsometrySpec,
    Kernel,
    UnsupportedTargetError,
    basic_set_transport,
    block_kernel,
    broue_check,
    identity_iso,
    iso_I,
    kernel_of,
    local_side,
    perfect_check,
    split_value_matrix,
    swap_J,
    swap_reports,
)
from spinbars.spinchar import ALT, MINUS, PLUS, SELF, SYM, labels
from spinbars.zverify import block_table, restricted_matrix, split_table
from oracles import (
    Exact,
    ZClass,
    broue_check_by_coefficients,
    compose_kernel,
    epsilon_twist,
    expand_z,
    image,
    kernel_from_table,
    kernel_of_algnum,
    kernel_table,
    kernel_value,
    perfect_check_algnum,
    z_value_matrix,
)


def num(x):
    return Exact.from_rational(x)


def block_n3():
    return BlockId(SYM, 3, BarPartition(()), 1)


def block_n4():
    return BlockId(SYM, 3, BarPartition((1,)), 1)


def find_class(classes, pi):
    return next(c for c in classes if c.pi == pi)


class TestIsometrySpec:
    def test_rejects_non_bijections(self):
        a, b, c = block_members(block_n3())
        with pytest.raises(ValueError, match="appears twice"):
            IsometrySpec(((a, a, 1), (a, b, 1), (c, c, 1)))  # repeats source a
        with pytest.raises(ValueError, match="appears twice"):
            IsometrySpec(((a, a, 1), (b, a, 1), (c, c, 1)))  # repeats target a
        assert IsometrySpec(((a, b, 1), (b, a, -1), (c, c, 1))).mapping == ((a, b, 1), (b, a, -1), (c, c, 1))

    def test_rejects_signs_other_than_plus_minus_one(self):
        members = block_members(block_n3())
        a, b, c = members
        # 1.0 and True equal 1 but are no int signs; a 1.0 sign made float kernel cells
        for sign in (0, 2, -2, 1.0, True):
            with pytest.raises(ValueError):
                IsometrySpec(((a, a, 1), (b, b, sign), (c, c, 1)))

    def test_compose_follows_each_image(self):
        rng = random.Random("compose")
        for b, members in block_partition(SYM, 9, 3):
            for _ in range(3):
                f = _random_signed_bijection(members, rng)
                g = _random_signed_bijection(members, rng)
                want = tuple((s, image(g, t)[0], sign * image(g, t)[1]) for s, t, sign in f.mapping)
                assert f.compose(g).mapping == want, b

    def test_compose_refuses_mismatched_middle_sets(self):
        a, b, c = block_members(block_n3())
        f = IsometrySpec(((a, b, 1), (b, a, -1)))
        for g in (
            IsometrySpec(((a, a, 1), (b, b, 1), (c, c, 1))),  # covers more than f's targets
            IsometrySpec(((a, a, 1),)),  # covers fewer
            IsometrySpec(((a, a, 1), (c, c, 1))),  # as many, but not the same
        ):
            with pytest.raises(ValueError, match="not the targets"):
                f.compose(g)


class TestSwapJ:
    def test_n3(self):
        J = swap_J(block_n3(), BarPartition((2, 1)))
        images = {repr(s): (repr(t), sign) for s, t, sign in J.mapping}
        assert images["<sym:(3,)>"] == ("<sym:(3,)>", 1)
        assert images["<sym:(2, 1)+>"] == ("<sym:(2, 1)->", 1)
        assert images["<sym:(2, 1)->"] == ("<sym:(2, 1)+>", 1)

    def test_involution(self):
        J = swap_J(block_n3(), BarPartition((2, 1)))
        assert J.compose(J).mapping == identity_iso(block_n3()).mapping

    def test_n4_block_membership(self):
        J = swap_J(block_n4(), BarPartition((4,)))
        fixed = [s for s, t, _ in J.mapping if s == t]
        assert [x.lam.parts for x in fixed] == [(3, 1)]

    def test_errors(self):
        with pytest.raises(ValueError):
            swap_J(block_n3(), BarPartition((3,)))  # positive sign, no pair
        with pytest.raises(ValueError):
            swap_J(block_n3(), BarPartition((2,)))  # pair not in this block


class TestIsoI:
    def test_n3_mapping(self):
        iso = iso_I(block_n3())
        got = {}
        for s, t, sign in iso.mapping:
            got[(s.lam.parts, s.tag)] = (
                t.quotient.lambda0.parts,
                tuple(c.parts for c in t.quotient.components),
                t.tag,
                sign,
            )
        # xi_(3): quotient ((1); -), sign delta * (-1)^1 = -1
        assert got[((3,), SELF)] == ((1,), ((),), SELF, -1)
        # the pair: quotient (-; (1)), sign delta * (-1)^0 = delta = -1
        d = delta_bar(BarPartition((2, 1)), 3)
        assert got[((2, 1), PLUS)] == ((), ((1,),), PLUS, d)
        assert got[((2, 1), MINUS)] == ((), ((1,),), MINUS, d)

    def test_weight_zero_error(self):
        with pytest.raises(ValueError):
            iso_I(BlockId(SYM, 3, BarPartition((5, 2)), 0))

    def test_sign_formula(self):
        for p in (3, 5):
            for n in range(1, 11):
                for b, _ in block_partition(SYM, n, p):
                    if b.weight == 0:
                        continue
                    for s, t, sign in iso_I(b).mapping:
                        _, q = bar_core_quotient(s.lam, p)
                        assert sign == delta_bar(s.lam, p) * (-1) ** q.lambda0.n
                        assert t.tag == s.tag

    def test_commutes_with_twist(self):
        for b, _ in block_partition(SYM, 7, 3):
            if b.weight == 0:
                continue
            iso = iso_I(b)
            for s, t, sign in iso.mapping:
                t2, sign2 = image(iso, epsilon_twist(s))
                assert sign2 == sign
                assert t2.quotient == t.quotient
                if s.tag == SELF:
                    assert t2.tag == SELF
                else:
                    assert {t.tag, t2.tag} == {PLUS, MINUS}

    def test_side_rule(self):
        assert local_side(block_n3()) == SIDE_G
        assert local_side(BlockId(SYM, 3, BarPartition((2,)), 1)) == SIDE_H
        assert local_side(BlockId(ALT, 3, BarPartition(()), 1)) == SIDE_H
        assert local_side(BlockId(ALT, 3, BarPartition((2,)), 1)) == SIDE_G
        # A_1 = S_1: the alternating cover of n = 1 takes the symmetric side
        assert local_side(BlockId(ALT, 3, BarPartition((1,)), 0)) == SIDE_G

    @pytest.mark.parametrize("group", [SYM, ALT])
    def test_basic_transport(self, group):
        for p in (3, 5):
            for n in range(1, 11):
                for b, _ in block_partition(group, n, p):
                    if b.weight >= 1:
                        iso = iso_I(b)
                        assert basic_set_transport(iso, b), b
                        missing = len(local_basic_labels(b.weight, b.p, local_side(b)))
                        assert missing == len(basic_set(b))
                        # exchanging the images of a basic and a non-basic label breaks it
                        basic = set(basic_set(b))
                        s0, t0, _ = next(m for m in iso.mapping if m[0] in basic)
                        others = [m for m in iso.mapping if m[0] not in basic]
                        if others:
                            s1, t1, _ = others[0]
                            swapped = {s0: t1, s1: t0}
                            mapping = tuple((s, swapped.get(s, t), e) for s, t, e in iso.mapping)
                            assert not basic_set_transport(IsometrySpec(mapping), b), b


class TestKernels:
    def test_identity_kernel_value(self):
        K = block_kernel(identity_iso(block_n3()), block_n3())
        c = find_class(K.source_classes, (1, 1, 1))
        assert kernel_value(K, c, c) == num(6)  # 2*2 + 1*1 + 1*1

    def test_swap_equals_identity_off_the_pair(self):
        b = block_n4()
        KJ = block_kernel(swap_J(b, BarPartition((4,))), b)
        KI = block_kernel(identity_iso(b), b)
        for x in KJ.source_classes:
            for y in KJ.target_classes:
                if x.pi != (4,):
                    assert kernel_value(KJ, x, y) == kernel_value(KI, x, y)

    def test_n4_discrepancy_is_twice_z(self):
        b = block_n4()
        # over both central translates of each class: t and zt
        KJ = expand_z(block_kernel(swap_J(b, BarPartition((4,))), b))
        KI = expand_z(block_kernel(identity_iso(b), b))
        t, zt = (next(c for c in KJ.source_classes if c.cls.pi == (4,) and c.z == z) for z in (0, 1))
        deltas = {
            (kernel_value(KJ, t, t) - kernel_value(KI, t, t)).as_rational(),
            (kernel_value(KJ, t, zt) - kernel_value(KI, t, zt)).as_rational(),
        }
        assert deltas == {8, -8}
        # divisible by the centralizer order 8
        assert t.centralizer_order == 8

    def test_kernel_of_unsupported_target(self):
        with pytest.raises(UnsupportedTargetError):
            block_kernel(iso_I(block_n3()), block_n3())


class TestComposeKernel:
    def test_swap_squared_is_identity_kernel(self):
        b = block_n3()
        KJ = block_kernel(swap_J(b, BarPartition((2, 1))), b)
        KI = block_kernel(identity_iso(b), b)
        assert compose_kernel(KJ, KJ) == KI

    def test_identity_neutral(self):
        for n in (3, 4):
            blocks = [b for b, _ in block_partition(SYM, n, 3) if b.weight > 0]
            for b in blocks:
                KI = block_kernel(identity_iso(b), b)
                pairs = {x.lam.parts for x in block_members(b) if x.tag != SELF}
                for lam in pairs:
                    K = block_kernel(swap_J(b, BarPartition(lam)), b)
                    assert compose_kernel(KI, K) == K

    def test_matches_composed_spec(self):
        for n in range(2, 6):
            for b, members in block_partition(SYM, n, 3):
                pairs = sorted({x.lam.parts for x in members if x.tag != SELF})
                if not pairs or b.weight == 0:
                    continue
                J = swap_J(b, BarPartition(pairs[0]))
                KJ = block_kernel(J, b)
                assert compose_kernel(KJ, KJ) == block_kernel(J.compose(J), b)

    def test_zero_kernel(self):
        b = block_n3()
        K = block_kernel(identity_iso(b), b)
        zero = Kernel(K.source_classes, K.target_classes, {}, K.den)
        out = compose_kernel(zero, K)
        assert all(v.is_zero() for row in kernel_table(out) for v in row)

    def test_middle_mismatch(self):
        b3, b4 = block_n3(), block_n4()
        K3 = block_kernel(identity_iso(b3), b3)
        K4 = block_kernel(identity_iso(b4), b4)
        with pytest.raises(ValueError):
            compose_kernel(K3, K4)


class TestBroue:
    def test_n3_pass(self):
        b = block_n3()
        rep = broue_check(block_kernel(swap_J(b, BarPartition((2, 1))), b), 3)
        assert rep.passed

    def test_n4_pass(self):
        b = block_n4()
        rep = broue_check(block_kernel(swap_J(b, BarPartition((4,))), b), 3)
        assert rep.passed

    def test_corrupted_entry_fails_support(self):
        b = block_n3()
        K = block_kernel(swap_J(b, BarPartition((2, 1))), b)
        i = K.source_classes.index(find_class(K.source_classes, (1, 1, 1)))  # regular
        j = K.target_classes.index(find_class(K.target_classes, (3,)))  # singular
        cells = dict(K.cells)
        cells[i, j] = {(1, 0): K.den}  # the entry 1
        bad = Kernel(K.source_classes, K.target_classes, cells, K.den)
        rep = broue_check(bad, 3)
        assert not rep.passed and rep.support_failures

    def test_p_below_2_raises_at_once(self):
        # the valuation loop never ends at p = 1 and divides by zero at p = 0
        K = block_kernel(identity_iso(block_n3()), block_n3())
        for p in (1, 0):
            with pytest.raises(ValueError):
                broue_check(K, p)

    @pytest.mark.parametrize("p", [3, 5])
    def test_sweep(self, p):
        for n in range(2, 10):
            for b, members in block_partition(SYM, n, p):
                for lam in sorted({x.lam.parts for x in members if x.tag != SELF}):
                    K = block_kernel(swap_J(b, BarPartition(lam)), b)
                    assert broue_check(K, p).passed, (b, lam)


class TestInverse:
    def test_swap_is_self_inverse(self):
        J = swap_J(block_n3(), BarPartition((2, 1)))
        assert set(J.inverse().mapping) == set(J.mapping)

    def test_iso_inverse_composes_to_identity(self):
        iso = iso_I(block_n4())
        back = iso.compose(iso.inverse())
        assert back.mapping == identity_iso(block_n4()).mapping


class TestAltCoverKernels:
    def test_identity_is_broue_and_perfect(self):
        for n in (4, 5, 6):
            for b, _ in block_partition(ALT, n, 3):
                K = block_kernel(identity_iso(b), b)
                assert broue_check(K, 3).passed, b
                assert perfect_check(identity_iso(b), b), b


class TestPerfect:
    def test_identity(self):
        assert perfect_check(identity_iso(block_n3()), block_n3())

    def test_swap_n3_n4(self):
        assert perfect_check(swap_J(block_n3(), BarPartition((2, 1))), block_n3())
        assert perfect_check(swap_J(block_n4(), BarPartition((4,))), block_n4())

    def test_unsupported_target(self):
        with pytest.raises(UnsupportedTargetError):
            perfect_check(iso_I(block_n3()), block_n3())


class TestKernelOf:
    def test_matches_block_kernel(self):
        b = block_n3()
        table = split_table(b)
        K1 = kernel_of(identity_iso(b), table, table)
        K2 = block_kernel(identity_iso(b), b)
        assert K1 == K2
        values = split_value_matrix(b)
        assert K1 == kernel_of_algnum(identity_iso(b), values, values)

    def test_refuses_labels_missing_from_the_tables(self):
        # a label with no row in its table is named, not a bare KeyError
        b3, b4 = block_n3(), block_n4()
        t3, t4 = split_table(b3), split_table(b4)
        x, y = block_members(b3)[0], labels(SYM, 4)[0]
        with pytest.raises(ValueError, match=r"^source label <sym:\(4,\)\+> is not a row of the source table$"):
            kernel_of(IsometrySpec(((y, y, 1),)), t3, t3)
        with pytest.raises(ValueError, match=r"^target label <sym:\(4,\)\+> is not a row of the target table$"):
            kernel_of(IsometrySpec(((x, y, 1),)), t3, t3)
        with pytest.raises(ValueError, match=r"^target label <sym:\(3,\)> is not a row"):
            kernel_of(identity_iso(b3), t3, t4)
        with pytest.raises(ValueError, match=r"^source label <sym:\(4,\)\+> is not a row"):
            block_kernel(identity_iso(b4), b3)

    def test_integer_cells(self):
        # only nonzero cells and coefficients are stored; kernel_from_table reads the dense form back
        for b, _ in block_partition(SYM, 8, 3):
            K = block_kernel(identity_iso(b), b)
            assert K.cells and all(cell and all(cell.values()) for cell in K.cells.values())
            assert len(K.cells) == sum(1 for row in kernel_table(K) for v in row if v)
            assert kernel_from_table(K.source_classes, K.target_classes, kernel_table(K)) == K

    def test_equality_compares_values(self):
        # equal values over different denominators are one kernel, and a kernel is
        # hashable and keeps its own cell map
        b = block_n4()
        K = block_kernel(identity_iso(b), b)
        cells = {ij: {key: 2 * c for key, c in cell.items()} for ij, cell in K.cells.items()}
        K2 = Kernel(K.source_classes, K.target_classes, cells, 2 * K.den)
        assert K2 == K and hash(K2) == hash(K)
        assert K2 == kernel_from_table(K.source_classes, K.target_classes, kernel_table(K))
        cells.clear()
        assert K2.cells and K2 == K
        with pytest.raises(TypeError):
            K2.cells[0, 0] = {(1, 0): 1}
        assert K2 != Kernel(K.source_classes, K.target_classes, K.cells, 3 * K.den)
        assert K2 != Kernel(K.source_classes[::-1], K.target_classes, cells, K.den)
        # stored zeros are dropped: a zero coefficient or an empty cell adds no value
        padded = {**K.cells, (0, 0): {**K.cells.get((0, 0), {}), (7, 1): 0}, (0, 1): {}}
        K3 = Kernel(K.source_classes, K.target_classes, padded, K.den)
        assert K3.cells == K.cells and K3 == K and hash(K3) == hash(K)

    @pytest.mark.parametrize("den", [0, -4, 4.0, True])
    def test_denominator_below_one_raises(self, den):
        # with den = 0, cross-multiplied equality would make every kernel of one support equal
        K = block_kernel(identity_iso(block_n3()), block_n3())
        with pytest.raises(ValueError, match="denominator"):
            Kernel(K.source_classes, K.target_classes, K.cells, den)

    @pytest.mark.parametrize("c", [0.5, 1.0, Fraction(1, 2), True])
    def test_coefficients_must_be_ints(self, c):
        K = block_kernel(identity_iso(block_n3()), block_n3())
        cells = {**K.cells, (0, 0): {(1, 0): c}}
        with pytest.raises(ValueError, match="coefficients are integers"):
            Kernel(K.source_classes, K.target_classes, cells, K.den)


def _pairs(members) -> list:
    return sorted({x.lam.parts for x in members if x.tag != SELF}, reverse=True)


class TestSwapReports:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_match_full_swap_kernels(self, p):
        # every full swap kernel's report is the one swap_reports gives; up to n = 10
        # the swap kernel is the identity kernel with its cell (c, c) negated, at the
        # class c of the pair's type, and no other identity cell lies in row or column c
        swaps = 0
        for n in range(1, 15):
            for b, members in block_partition(SYM, n, p):
                reports = swap_reports(b)
                assert list(reports) == _pairs(members), b
                K = block_kernel(identity_iso(b), b) if n <= 10 and reports else None
                for lam in reports:
                    KJ = block_kernel(swap_J(b, BarPartition(lam)), b)
                    assert reports[lam] == broue_check(KJ, p), (b, lam)
                    if K is not None:
                        c = K.source_classes.index(find_class(K.source_classes, lam))
                        negated = {key: -a for key, a in K.cells[c, c].items()}
                        assert dict(KJ.cells) == K.cells | {(c, c): negated}, (b, lam)
                        assert [ij for ij in K.cells if c in ij] == [(c, c)], (b, lam)
                    swaps += 1
        # every plus/minus pair lies in one block and is swapped there once
        assert swaps == sum(1 for n in range(1, 15) for lam in bar_partitions(n) if sigma(lam) == -1)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_pair_class_holds_only_the_pair(self, p):
        # what swap_reports rests on: on the class of a pair's type only the pair's
        # two rows of split_table are nonzero, and they are negatives of each other
        pairs_seen = 0
        for n in range(1, 17):
            for b, members in block_partition(SYM, n, p):
                pairs = _pairs(members)
                if not pairs:
                    continue
                table = split_table(b)
                for lam in pairs:
                    c = table.classes.index(find_class(table.classes, lam))
                    on_c = [t for t, (j, _) in enumerate(table.columns) if j == c]
                    values = {x: [row[t] for t in on_c] for x, row in zip(table.row_keys, table.rows)}
                    plus, minus = (x for x in members if x.lam.parts == lam)
                    assert {plus.tag, minus.tag} == {PLUS, MINUS}, (b, lam)
                    assert any(values[plus]) and values[minus] == [-a for a in values[plus]], (b, lam)
                    assert not any(a for x, v in values.items() if x not in (plus, minus) for a in v), (b, lam)
                    pairs_seen += 1
        assert pairs_seen == sum(1 for n in range(1, 17) for lam in bar_partitions(n) if sigma(lam) == -1)

    def test_no_swaps_on_the_alternating_cover(self):
        for b, members in block_partition(ALT, 8, 3):
            assert swap_reports(b) == {}

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_damaged_identity_reaches_every_report(self, p, monkeypatch):
        # Every real swap passes, so failures are made on purpose.  The identity
        # kernel is thinned (den * p) and two of its cells are set to 1 over that
        # denominator: C, pairing the regular class of type 1^n with a p-singular
        # class off every pair's type, fails both conditions; (c, c), at the class
        # of lam's type, fails condition (i).  Every swap report must be the damaged
        # kernel's, with both damaged cells among its failures.
        cases = 0
        one = {(1, 0): 1}
        for n in range(p, 13):
            for b, members in block_partition(SYM, n, p):
                pairs = _pairs(members)
                if not pairs:
                    continue
                K = block_kernel(identity_iso(b), b)
                classes = K.source_classes
                i = classes.index(find_class(classes, (1,) * n))
                js = [j for j, y in enumerate(classes) if not y.is_regular(p) and y.pi not in pairs]
                if not js:
                    continue
                C = (i, js[0])
                for lam in pairs:
                    c = classes.index(find_class(classes, lam))
                    D = Kernel(classes, classes, K.cells | {C: one, (c, c): one}, K.den * p)
                    with monkeypatch.context() as m:
                        m.setattr(isometry, "block_kernel", lambda iso, block, D=D: D)
                        got = swap_reports(b)
                    assert got == dict.fromkeys(pairs, broue_check(D, p)), (b, lam)
                    assert (classes[c], classes[c]) in got[lam].integrality_failures, (b, lam)
                    x, y = classes[C[0]], classes[C[1]]
                    assert (x, y) in got[lam].integrality_failures, (b, lam)
                    assert (x, y) in got[lam].support_failures, (b, lam)
                    cases += 1
        assert cases >= 25


def _failed(kind: str, report) -> set:
    """(kind, condition) for each Broué condition the report fails."""
    bad = {"i": report.integrality_failures, "ii": report.support_failures}
    return {(kind, cond) for cond, pairs in bad.items() if pairs}


def _flip_sign(iso: IsometrySpec) -> IsometrySpec:
    (s, t, sign), *rest = iso.mapping
    return IsometrySpec(((s, t, -sign), *rest))


def _transpose(iso: IsometrySpec) -> IsometrySpec:
    (s0, t0, e0), (s1, t1, e1), *rest = iso.mapping
    return IsometrySpec(((s0, t1, e1), (s1, t0, e0), *rest))


def _random_signed_bijection(members: tuple, rng: random.Random) -> IsometrySpec:
    targets = rng.sample(members, len(members))
    return IsometrySpec(tuple((s, t, rng.choice((1, -1))) for s, t in zip(members, targets)))


def _isometries(b: BlockId, members: tuple, rng: random.Random) -> list:
    """(kind, isometry) for the identity, every swap, two faults and four random bijections."""
    isos = [("identity", identity_iso(b))]
    if b.group == SYM:
        pairs = sorted({x.lam.parts for x in members if x.tag != SELF})
        isos += [("swap", swap_J(b, BarPartition(lam))) for lam in pairs]
    if len(members) >= 2:
        isos += [("fault", _flip_sign(isos[0][1])), ("fault", _transpose(isos[-1][1]))]
    return isos + [("random", _random_signed_bijection(members, rng)) for _ in range(4)]


def _thinned(K: Kernel, p: int) -> Kernel:
    """K divided by p, which breaks condition (i) wherever p does not divide it."""
    return Kernel(K.source_classes, K.target_classes, K.cells, K.den * p)


class TestIntegerPathsMatchOracles:
    @pytest.mark.parametrize("group", [SYM, ALT])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_kernels_and_perfectness(self, group, p):
        verdicts = {}
        failures = set()
        rng = random.Random(f"{group}-{p}")
        for n in range(1, 10):
            for b, members in block_partition(group, n, p):
                isos = _isometries(b, members, rng)
                values = split_value_matrix(b)
                regular = restricted_matrix(b)  # same rows, other classes and denominator
                assert kernel_of(isos[0][1], split_table(b), block_table(b)) == (
                    kernel_of_algnum(isos[0][1], values, regular)
                ), b
                for kind, iso in isos:
                    K = block_kernel(iso, b)
                    assert K == kernel_of_algnum(iso, values, values), (b, iso)
                    perfect = perfect_check(iso, b)
                    assert perfect == perfect_check_algnum(iso, p, b), (b, iso)
                    verdicts.setdefault(kind, set()).add(perfect)
                    broue = broue_check(K, p)
                    assert broue == broue_check_by_coefficients(K, p), (b, iso)
                    assert perfect == (not broue.support_failures), (b, iso)
                    failures.update(_failed(kind, broue))
                thin = _thinned(block_kernel(isos[0][1], b), p)
                broue = broue_check(thin, p)
                assert broue == broue_check_by_coefficients(thin, p), b
                failures.update(_failed("thin", broue))
        assert verdicts["identity"] == verdicts.get("swap", {True}) == {True}
        assert False in verdicts["fault"]
        assert verdicts["random"] == {True, False}
        assert ("thin", "i") in failures

    @pytest.mark.parametrize("group", [SYM, ALT])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_z_even_quarter_decides_the_kernel(self, group, p):
        # a kernel over the split classes decides Broué's conditions over both
        # central translates of each class: the same verdicts, and the failing
        # pairs of the whole kernel are the z-translates of the quarter's
        failures = set()
        rng = random.Random(f"{group}-{p}")
        for n in range(1, 10):
            for b, members in block_partition(group, n, p):
                isos = _isometries(b, members, rng)
                kernels = [(kind, block_kernel(iso, b)) for kind, iso in isos]
                kernels.append(("thin", _thinned(kernels[0][1], p)))
                # expand_z is the kernel of the table over both translates
                both = z_value_matrix(split_value_matrix(b))
                assert expand_z(kernels[0][1]) == kernel_of_algnum(isos[0][1], both, both), b
                for kind, K in kernels:
                    quarter = broue_check(K, p)
                    whole = broue_check_by_coefficients(expand_z(K), p)
                    assert whole.passed == quarter.passed, (b, kind)
                    for got, want in (
                        (whole.integrality_failures, quarter.integrality_failures),
                        (whole.support_failures, quarter.support_failures),
                    ):
                        assert bool(got) == bool(want), (b, kind)
                        assert set(got) == {
                            (ZClass(x, a), ZClass(y, c)) for x, y in want for a in (0, 1) for c in (0, 1)
                        }, (b, kind)
                    failures.update(_failed(kind, quarter))
        assert {("fault", "ii"), ("random", "i"), ("thin", "i")} <= failures
