import random
from fractions import Fraction

import pytest

from spinbars.algnum import AlgNum
from spinbars.barcomb import BarPartition, bar_core_quotient, delta_bar
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
    compose_kernel,
    identity_iso,
    iso_I,
    kernel_of,
    local_side,
    perfect_check,
    split_value_matrix,
    swap_J,
)
from spinbars.spinchar import ALT, MINUS, PLUS, SELF, SYM, epsilon_twist
from spinbars.zverify import block_table, p_integrality, restricted_matrix, split_table
from oracles import broue_check_by_coefficients, kernel_of_algnum, perfect_check_algnum


def num(x):
    return AlgNum.from_rational(x)


def block_n3():
    return BlockId(SYM, 3, BarPartition(()), 1)


def block_n4():
    return BlockId(SYM, 3, BarPartition((1,)), 1)


def find_class(classes, pi, zflag=0):
    return next(c for c in classes if c.pi == pi and c.zflag == zflag)


class TestIsometrySpec:
    def test_rejects_non_bijections(self):
        members = block_members(block_n3())
        a, b, c = members
        with pytest.raises(ValueError):
            IsometrySpec(members, members, ((a, a, 1), (b, b, 1)))  # drops source c
        with pytest.raises(ValueError):
            IsometrySpec(members, members, ((a, a, 1), (b, a, 1), (c, c, 1)))  # repeats target a
        IsometrySpec(members, members, ((a, b, 1), (b, a, -1), (c, c, 1)))


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
                t2, sign2 = iso.image(epsilon_twist(s))
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

    @pytest.mark.parametrize("group", [SYM, ALT])
    def test_basic_transport(self, group):
        for p in (3, 5):
            for n in range(1, 11):
                for b, _ in block_partition(group, n, p):
                    if b.weight >= 1:
                        assert basic_set_transport(b), b
                        missing = len(local_basic_labels(b.weight, b.p, local_side(b)))
                        assert missing == len(basic_set(b))


class TestKernels:
    def test_identity_kernel_value(self):
        K = block_kernel(identity_iso(block_n3()), block_n3())
        c = find_class(K.source_classes, (1, 1, 1))
        assert K.value(c, c) == num(6)  # 2*2 + 1*1 + 1*1

    def test_swap_equals_identity_off_the_pair(self):
        b = block_n4()
        KJ = block_kernel(swap_J(b, BarPartition((4,))), b)
        KI = block_kernel(identity_iso(b), b)
        for x in KJ.source_classes:
            for y in KJ.target_classes:
                if x.pi != (4,):
                    assert KJ.value(x, y) == KI.value(x, y)

    def test_n4_discrepancy_is_twice_z(self):
        b = block_n4()
        KJ = block_kernel(swap_J(b, BarPartition((4,))), b)
        KI = block_kernel(identity_iso(b), b)
        t = find_class(KJ.source_classes, (4,))
        zt = find_class(KJ.source_classes, (4,), zflag=1)
        deltas = {
            (KJ.value(t, t) - KI.value(t, t)).as_rational(),
            (KJ.value(t, zt) - KI.value(t, zt)).as_rational(),
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
        assert compose_kernel(KJ, KJ).table == KI.table

    def test_identity_neutral(self):
        for n in (3, 4):
            blocks = [b for b, _ in block_partition(SYM, n, 3) if b.weight > 0]
            for b in blocks:
                KI = block_kernel(identity_iso(b), b)
                pairs = {x.lam.parts for x in block_members(b) if x.tag != SELF}
                for lam in pairs:
                    K = block_kernel(swap_J(b, BarPartition(lam)), b)
                    assert compose_kernel(KI, K).table == K.table

    def test_matches_composed_spec(self):
        for n in range(2, 6):
            for b, members in block_partition(SYM, n, 3):
                pairs = sorted({x.lam.parts for x in members if x.tag != SELF})
                if not pairs or b.weight == 0:
                    continue
                J = swap_J(b, BarPartition(pairs[0]))
                KJ = block_kernel(J, b)
                assert compose_kernel(KJ, KJ).table == block_kernel(J.compose(J), b).table

    def test_zero_kernel(self):
        b = block_n3()
        K = block_kernel(identity_iso(b), b)
        zero = Kernel(
            K.source_classes,
            K.target_classes,
            tuple(tuple(AlgNum() for _ in row) for row in K.table),
        )
        out = compose_kernel(zero, K)
        assert all(v.is_zero() for row in out.table for v in row)

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
        table = [list(row) for row in K.table]
        table[i][j] = num(1)
        bad = Kernel(K.source_classes, K.target_classes, tuple(tuple(r) for r in table))
        rep = broue_check(bad, 3)
        assert not rep.passed and rep.support_failures

    def test_p_below_2_raises_at_once(self):
        # the valuation loop never ends at p = 1 and divides by zero at p = 0
        K = block_kernel(identity_iso(block_n3()), block_n3())
        for p in (1, 0):
            with pytest.raises(ValueError):
                p_integrality(num(2), p, 6)
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
        assert K1.table == K2.table
        values = split_value_matrix(b)
        assert K1.table == kernel_of_algnum(identity_iso(b), values, values).table


def _failed(kind: str, report) -> set:
    """(kind, condition) for each Broué condition the report fails."""
    bad = {"i": report.integrality_failures, "ii": report.support_failures}
    return {(kind, cond) for cond, pairs in bad.items() if pairs}


def _flip_sign(iso: IsometrySpec) -> IsometrySpec:
    (s, t, sign), *rest = iso.mapping
    return IsometrySpec(iso.source, iso.target, ((s, t, -sign), *rest))


def _transpose(iso: IsometrySpec) -> IsometrySpec:
    (s0, t0, e0), (s1, t1, e1), *rest = iso.mapping
    return IsometrySpec(iso.source, iso.target, ((s0, t1, e1), (s1, t0, e0), *rest))


def _random_signed_bijection(members: tuple, rng: random.Random) -> IsometrySpec:
    targets = rng.sample(members, len(members))
    return IsometrySpec(members, members, tuple((s, t, rng.choice((1, -1))) for s, t in zip(members, targets)))


class TestIntegerPathsMatchOracles:
    @pytest.mark.parametrize("group", [SYM, ALT])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_kernels_and_perfectness(self, group, p):
        verdicts = {}
        failures = set()
        rng = random.Random(f"{group}-{p}")
        for n in range(1, 10):
            for b, members in block_partition(group, n, p):
                isos = [("identity", identity_iso(b))]
                if group == SYM:
                    pairs = sorted({x.lam.parts for x in members if x.tag != SELF})
                    isos += [("swap", swap_J(b, BarPartition(lam))) for lam in pairs]
                if len(members) >= 2:
                    isos += [("fault", _flip_sign(isos[0][1])), ("fault", _transpose(isos[-1][1]))]
                isos += [("random", _random_signed_bijection(members, rng)) for _ in range(4)]
                values = split_value_matrix(b)
                regular = restricted_matrix(b)  # same rows, other classes and denominator
                assert kernel_of(isos[0][1], split_table(b), block_table(b)).table == (
                    kernel_of_algnum(isos[0][1], values, regular).table
                ), b
                for kind, iso in isos:
                    K = block_kernel(iso, b)
                    assert K.table == kernel_of_algnum(iso, values, values).table, (b, iso)
                    perfect = perfect_check(iso, b)
                    assert perfect == perfect_check_algnum(iso, p, b), (b, iso)
                    verdicts.setdefault(kind, set()).add(perfect)
                    broue = broue_check(K, p)
                    assert broue == broue_check_by_coefficients(K, p), (b, iso)
                    assert perfect == (not broue.support_failures), (b, iso)
                    failures.update(_failed(kind, broue))
                # dividing a kernel by p breaks condition (i) wherever p does not divide it
                K = block_kernel(isos[0][1], b)
                thin = Kernel(K.source_classes, K.target_classes, tuple(tuple(v * Fraction(1, p) for v in row) for row in K.table))
                broue = broue_check(thin, p)
                assert broue == broue_check_by_coefficients(thin, p), b
                failures.update(_failed("thin", broue))
        assert verdicts["identity"] == verdicts.get("swap", {True}) == {True}
        assert False in verdicts["fault"]
        assert verdicts["random"] == {True, False}
        assert ("thin", "i") in failures
