import json
from types import SimpleNamespace

import pytest

from spinbars import barcomb, blocks, isometry
from spinbars.barcomb import (
    BarPartition,
    BarQuotient,
    Partition,
    bar_core_quotient,
    bar_partitions,
    delta_bar,
    is_bar_core,
    partitions,
)
from spinbars.blocks import (
    SIDE_G,
    SIDE_H,
    BlockId,
    LocalLabel,
    basic_set,
    block_partition,
    brauer_count,
    local_basic_labels,
    local_side,
)
from spinbars.cli import _block_json
from spinbars.isometry import block_kernel, broue_check, identity_iso, iso_I
from spinbars.spinchar import ALT, MINUS, PLUS, SELF, SYM, SpinLabel, labels, split_classes
from oracles import (
    block_of,
    brauer_count_closed_form,
    epsilon_twist,
    from_core_quotient,
    local_basic_labels_dense,
)


class TestBlockOf:
    def test_defect_zero(self):
        b = block_of(SpinLabel(SYM, BarPartition((5, 2)), PLUS), 3)
        assert b.core.parts == (5, 2) and b.weight == 0 and b.is_defect_zero()

    def test_seven(self):
        b = block_of(SpinLabel(SYM, BarPartition((7,)), SELF), 3)
        assert b.core.parts == (1,) and b.weight == 2 and b.sign == 1

    def test_21(self):
        b = block_of(SpinLabel(SYM, BarPartition((2, 1)), PLUS), 3)
        assert b.core.parts == () and b.weight == 1 and b.sign == 1

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            BlockId(SYM, 4, BarPartition(()), 1)

    def test_unknown_group(self):
        with pytest.raises(ValueError, match="unknown group 'xyz'"):
            labels("xyz", 3)
        with pytest.raises(ValueError, match="unknown group 'xyz'"):
            split_classes(3, group="xyz")
        with pytest.raises(ValueError, match="unknown group 'xyz'"):
            BlockId("xyz", 3, BarPartition(()), 1)
        # a stand-in with a block's fields, since no BlockId has this group
        with pytest.raises(ValueError, match="unknown group 'xyz'"):
            local_side(SimpleNamespace(group="xyz", n=3, sign=1))


class TestBlockPartition:
    def test_n7_p3(self):
        found = dict(block_partition(SYM, 7, 3))
        big = BlockId(SYM, 3, BarPartition((1,)), 2)
        assert {(x.lam.parts, x.tag) for x in found[big]} == {
            ((7,), SELF),
            ((6, 1), PLUS),
            ((6, 1), MINUS),
            ((4, 3), PLUS),
            ((4, 3), MINUS),
            ((4, 2, 1), SELF),
        }
        single = BlockId(SYM, 3, BarPartition((5, 2)), 0)
        assert len(found[single]) == 2  # the associate pair shares the core

    def test_n3_p3(self):
        found = block_partition(SYM, 3, 3)
        assert len(found) == 1
        b, members = found[0]
        assert b.core.parts == () and b.weight == 1
        assert len(members) == 3

    def test_small_n_all_defect_zero(self):
        for p in (5, 7):
            for n in range(1, p):
                for b, _ in block_partition(SYM, n, p):
                    assert b.is_defect_zero()

    @pytest.mark.parametrize("group", [SYM, ALT])
    def test_is_partition_and_twist_stable(self, group):
        for p in (3, 5):
            for n in range(1, 11):
                all_labels = list(labels(group, n))
                seen = []
                for b, members in block_partition(group, n, p):
                    seen.extend(members)
                    assert {epsilon_twist(x) for x in members} == set(members)
                assert sorted(map(repr, seen)) == sorted(map(repr, all_labels))

    @pytest.mark.parametrize("group, n", [(SYM, 10), (ALT, 12)])
    def test_one_core_quotient_split_per_label(self, monkeypatch, group, n):
        # the block map keeps each member's quotient, and basic_set and iso_I
        # read it there instead of splitting the label again
        calls = [0]
        split = barcomb.bar_core_quotient

        def counted(lam, p):
            calls[0] += 1
            return split(lam, p)

        for module in (barcomb, blocks, isometry):
            monkeypatch.setattr(module, "bar_core_quotient", counted, raising=False)
        blocks._blocks.cache_clear()
        for b, _ in block_partition(group, n, 3):
            if b.weight > 0:
                basic_set(b)
                iso_I(b)
        assert calls[0] == len(labels(group, n))

    @pytest.mark.parametrize("group, n", [(SYM, 10), (ALT, 12)])
    def test_p_is_tested_once_per_label_and_block(self, monkeypatch, group, n):
        # neither a label's quotient nor a block's core check tests p a second time
        calls = []
        test = barcomb.is_odd_prime
        monkeypatch.setattr(barcomb, "is_odd_prime", lambda p: calls.append(p) or test(p))
        for p in (3, 43):
            calls.clear()
            blocks._blocks.cache_clear()
            found = block_partition(group, n, p)
            assert calls == [p] * (1 + len(labels(group, n)) + len(found))


class TestBasicSet:
    def test_core1_w2(self):
        b = BlockId(SYM, 3, BarPartition((1,)), 2)
        assert {x.lam.parts for x in basic_set(b)} == {(7,), (4, 2, 1)}

    def test_core_empty_w1(self):
        b = BlockId(SYM, 3, BarPartition(()), 1)
        assert [(x.lam.parts, x.tag) for x in basic_set(b)] == [
            ((2, 1), PLUS),
            ((2, 1), MINUS),
        ]

    def test_defect_zero_is_whole_block(self):
        for group in (SYM, ALT):
            for p in (3, 5):
                for n in range(1, 10):
                    for b, members in block_partition(group, n, p):
                        if b.is_defect_zero():
                            assert basic_set(b) == members

    def test_members_have_empty_strict_component(self):
        for p in (3, 5):
            for n in range(1, 12):
                for b, _ in block_partition(SYM, n, p):
                    for x in basic_set(b):
                        _, q = bar_core_quotient(x.lam, p)
                        assert q.lambda0.n == 0

    def test_all_or_none_self_associate(self):
        for group in (SYM, ALT):
            for p in (3, 5, 7):
                for n in range(1, 12):
                    for b, _ in block_partition(group, n, p):
                        tags = {x.tag == SELF for x in basic_set(b)}
                        assert len(tags) == 1


class TestLocalLabels:
    def test_weight2_g_side(self):
        got = local_basic_labels(2, 3, SIDE_G)
        assert [(tuple(c.parts for c in l.quotient.components), l.tag) for l in got] == [
            (((2,),), SELF),
            (((1, 1),), SELF),
        ]

    def test_weight1_g_side(self):
        got = local_basic_labels(1, 3, SIDE_G)
        assert [(l.quotient.components[0].parts, l.tag) for l in got] == [
            ((1,), PLUS),
            ((1,), MINUS),
        ]

    def test_weight3_p5_count(self):
        assert len(local_basic_labels(3, 5, SIDE_H)) == 10  # odd weight splits nothing on H
        got = local_basic_labels(3, 5, SIDE_G)
        assert len(got) == 20  # odd weight on the G side doubles every tuple

    def test_h_side_duality(self):
        for w in range(5):
            g = local_basic_labels(w, 3, SIDE_G)
            h = local_basic_labels(w, 3, SIDE_H)
            if w % 2:
                assert all(l.tag != SELF for l in g) and all(l.tag == SELF for l in h)
            else:
                assert all(l.tag == SELF for l in g) and all(l.tag != SELF for l in h)

    @pytest.mark.parametrize("side", [SIDE_G, SIDE_H])
    def test_matches_dense_oracle(self, side):
        # same labels in the same order as the enumeration over all (p - 1)/2 components
        for p in (3, 5, 7, 11, 13):
            for w in range(7):
                assert local_basic_labels(w, p, side) == local_basic_labels_dense(w, p, side), (w, p)

    def test_tag_consistency_enforced(self):
        from spinbars.barcomb import BarQuotient, Partition

        q = BarQuotient(BarPartition(()), {1: Partition((1,))}, 3)  # sign -1
        with pytest.raises(ValueError):
            LocalLabel(SIDE_G, q, SELF)
        LocalLabel(SIDE_G, q, PLUS)
        LocalLabel(SIDE_H, q, SELF)


class TestBrauerCount:
    def test_examples(self):
        assert brauer_count(BlockId(SYM, 3, BarPartition(()), 1)) == 2
        assert brauer_count(BlockId(SYM, 3, BarPartition((1,)), 2)) == 2
        # a defect-zero pair shares its block group and contributes two
        assert brauer_count(BlockId(SYM, 3, BarPartition((5, 2)), 0)) == 2
        assert brauer_count(BlockId(SYM, 3, BarPartition((1,)), 0)) == 1

    def test_invalid_core(self):
        with pytest.raises(ValueError):
            BlockId(SYM, 3, BarPartition((4, 2, 1)), 0)

    def test_large_primes(self):
        # one recursion frame per occupied residue pair, not one per component
        assert brauer_count(BlockId(SYM, 673, BarPartition(()), 1)) == 672
        assert brauer_count(BlockId(ALT, 2003, BarPartition(()), 1)) == 1001
        assert len(local_basic_labels(1, 1987, SIDE_G)) == 1986
        assert len(local_basic_labels(0, 2097143, SIDE_H)) == 2

    @pytest.mark.parametrize("group", [SYM, ALT])
    def test_matches_closed_form(self, group):
        for p in (3, 5, 7, 11, 13):
            for n in range(1, 21):
                for b, _ in block_partition(group, n, p):
                    assert brauer_count(b) == brauer_count_closed_form(b), b

    @pytest.mark.parametrize("group", [SYM, ALT])
    def test_matches_basic_set_size(self, group):
        for p in (3, 5, 7):
            for n in range(1, 12):
                for b, _ in block_partition(group, n, p):
                    assert brauer_count(b) == len(basic_set(b)), b


EMPTY = BarPartition(())
QUOTIENT_P3 = bar_core_quotient(BarPartition((3,)), 3)[1]


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: bar_partitions(-1), "n must be non-negative", id="bar_partitions-n"),
        pytest.param(lambda: partitions(-1), "n must be non-negative", id="partitions-n"),
        pytest.param(lambda: is_bar_core(EMPTY, 9), "odd prime", id="is_bar_core-p"),
        pytest.param(lambda: from_core_quotient(EMPTY, QUOTIENT_P3, 9), "odd prime", id="from_core_quotient-p"),
        pytest.param(
            lambda: from_core_quotient(EMPTY, QUOTIENT_P3, 5), "built for p=3", id="from_core_quotient-quotient"
        ),
        pytest.param(lambda: delta_bar(BarPartition((3,)), 9), "odd prime", id="delta_bar-p"),
        pytest.param(lambda: BlockId(SYM, 3, EMPTY, -1), "weight must be non-negative", id="BlockId-weight"),
        pytest.param(lambda: LocalLabel("X", QUOTIENT_P3, SELF), "unknown side", id="LocalLabel-side"),
        pytest.param(lambda: local_basic_labels(-1, 3, SIDE_G), "w must be non-negative", id="local_basic_labels-w"),
        pytest.param(lambda: local_basic_labels(1, 9, SIDE_G), "odd prime", id="local_basic_labels-p"),
        pytest.param(lambda: local_basic_labels(1, 3, "X"), "unknown side", id="local_basic_labels-side"),
        pytest.param(lambda: labels(SYM, 0), "n must be positive", id="labels-n"),
        pytest.param(lambda: split_classes(0), "n must be positive", id="split_classes-n"),
    ],
)
def test_public_guards_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


B3 = BlockId(SYM, 3, EMPTY, 1)

# every public entry that takes p, each refusing it through barcomb.require_prime
P_ENTRIES = [
    pytest.param(lambda p: bar_core_quotient(BarPartition((3,)), p), id="bar_core_quotient"),
    pytest.param(lambda p: is_bar_core(EMPTY, p), id="is_bar_core"),
    pytest.param(lambda p: delta_bar(BarPartition((3,)), p), id="delta_bar"),
    pytest.param(lambda p: BarQuotient(EMPTY, {1: Partition((1,))}, p), id="BarQuotient"),
    pytest.param(lambda p: BlockId(SYM, p, EMPTY, 1), id="BlockId"),
    pytest.param(lambda p: block_partition(SYM, 5, p), id="block_partition"),
    pytest.param(lambda p: local_basic_labels(1, p, SIDE_G), id="local_basic_labels"),
    pytest.param(lambda p: broue_check(block_kernel(identity_iso(B3), B3), p), id="broue_check"),
]


@pytest.mark.parametrize("call", P_ENTRIES)
@pytest.mark.parametrize("p", [9, 2, 1, True], ids=repr)
def test_p_must_be_an_odd_prime(call, p):
    # broue_check passed a kernel at p = 9, and BarQuotient took any p
    call(3)
    with pytest.raises(ValueError, match=r"^p must be an odd prime, got " + str(p) + "$"):
        call(p)


@pytest.mark.parametrize("call", P_ENTRIES)
@pytest.mark.parametrize("p", [3.0, "3"], ids=repr)
def test_p_must_be_an_int(call, p):
    with pytest.raises(TypeError):
        call(p)


def test_float_p_is_refused_on_a_warm_cache():
    # the block map is cached by p, where 3.0 is 3: it gave the blocks of p = 3
    block_partition(SYM, 5, 3)
    with pytest.raises(TypeError):
        block_partition(SYM, 5, 3.0)


@pytest.mark.parametrize("p, weight", [(3.0, 1), ("3", 1), (3, 1.0)])
def test_block_id_takes_integers(p, weight):
    # 3.0 would pass is_odd_prime as one of its bases
    with pytest.raises(TypeError):
        BlockId(SYM, p, EMPTY, weight)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda n: labels(SYM, n), id="labels"),
        pytest.param(lambda n: split_classes(n), id="split_classes"),
        pytest.param(lambda n: block_partition(SYM, n, 3), id="block_partition"),
        pytest.param(bar_partitions, id="bar_partitions"),
        pytest.param(partitions, id="partitions"),
        pytest.param(lambda w: local_basic_labels(w, 3, SIDE_G), id="local_basic_labels"),
    ],
)
def test_bool_n_is_refused(call):
    # True is 1 to a cache keyed by n and to range(): it gave the labels, classes,
    # blocks, partitions or local labels of n = 1
    call(1)
    with pytest.raises(TypeError):
        call(True)


@pytest.mark.parametrize("core", [Partition((1,)), Partition((2, 2)), (1,)], ids=repr)
def test_block_id_core_must_be_a_bar_partition(core):
    # Partition((1,)) printed as the real block's core, had no members, and
    # verified vacuously with rank 0 against a Brauer count of 2
    with pytest.raises(TypeError, match="BarPartition"):
        BlockId(SYM, 3, core, 1)


def test_block_id_stores_weight_as_int():
    # True would pass index() and reach the JSON report as true
    b = BlockId(SYM, 3, EMPTY, True)
    assert type(b.weight) is int and b == BlockId(SYM, 3, EMPTY, 1)
    assert '"weight": 1,' in json.dumps(_block_json(b))
