"""Acceptance criteria, one test per criterion, everything exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  All assertions are exact integer or exact algebraic-number
comparisons; no floating point is involved anywhere.
"""

import time

from spinbars.algnum import AlgNum
from spinbars.barcomb import (
    BarPartition,
    bar_core_quotient,
    bar_partitions,
    sigma,
)
from spinbars.blocks import BlockId, basic_set, block_partition, brauer_count
from spinbars.isometry import (
    basic_set_transport,
    block_kernel,
    broue_check,
    identity_iso,
    iso_I,
    local_side,
    swap_J,
)
from spinbars.blocks import local_basic_labels
from spinbars.spinchar import (
    ALT,
    MINUS,
    PLUS,
    SELF,
    SYM,
    SpinLabel,
    char_value,
    labels,
    split_classes,
)
from spinbars.zverify import block_table, hnf, restricted_matrix, verify_basic_set
from oracles import (
    I,
    Exact,
    brauer_count_closed_form,
    doubling,
    expand_z,
    from_core_quotient,
    inner_product,
    kernel_value,
    partition_core_quotient,
    value_vector,
)
from qfunction_oracle import odd_partitions, spin_value


def report(criterion: str, detail: str):
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_1_every_block_has_verified_basic_set():
    """Exact Z-span verification of every spin block, both covers, n<=12, p in {3,5,7}."""
    t_start = time.monotonic()
    checked = 0
    t10 = None
    for n in range(1, 13):
        for group in (SYM, ALT):
            for p in (3, 5, 7):
                for block, _ in block_partition(group, n, p):
                    rep = verify_basic_set(block)
                    assert rep.verdict, f"verification failed for {block}"
                    checked += 1
        if n == 10:
            t10 = time.monotonic() - t_start
    elapsed = time.monotonic() - t_start
    assert t10 < 15, f"n<=10 took {t10:.1f}s"
    assert elapsed < 120, f"n<=12 took {elapsed:.1f}s"
    report(
        "criterion 1 (exact basic-set verification)",
        f"{checked} blocks verified exactly; n<=10 in {t10:.2f}s, n<=12 in {elapsed:.2f}s",
    )


def test_criterion_2_worked_micro_instance():
    """n=3, p=3: fixed matrix rows, basic set, and the sum relation."""
    block = BlockId(SYM, 3, BarPartition(()), 1)
    matrix = restricted_matrix(block)
    cols = {c.pi: i for i, c in enumerate(matrix.classes)}
    assert set(cols) == {(1, 1, 1), (2, 1)}
    rows = {(x.lam.parts, x.tag): r for x, r in zip(matrix.row_keys, matrix.entries)}
    one = Exact.from_rational(1)
    assert rows[((3,), SELF)][cols[(1, 1, 1)]] == 2 * one
    assert rows[((3,), SELF)][cols[(2, 1)]] == AlgNum()
    assert rows[((2, 1), PLUS)][cols[(1, 1, 1)]] == one
    assert rows[((2, 1), PLUS)][cols[(2, 1)]] == I
    assert rows[((2, 1), MINUS)][cols[(1, 1, 1)]] == one
    assert rows[((2, 1), MINUS)][cols[(2, 1)]] == -I
    assert [(x.lam.parts, x.tag) for x in basic_set(block)] == [
        ((2, 1), PLUS),
        ((2, 1), MINUS),
    ]
    rep = verify_basic_set(block)
    assert rep.verdict
    ((label, coords),) = rep.coordinates.items()
    assert label.lam.parts == (3,) and coords == (1, 1)
    report("criterion 2 (worked micro-instance)", "matrix, basic set and relation all exact")


def test_criterion_3_sign_identity_and_roundtrip():
    """Sign identity and core/quotient roundtrip for all n<=30, p in {3,5,7,11}."""
    checked = 0
    for n in range(31):
        for lam in bar_partitions(n):
            for p in (3, 5, 7, 11):
                core, quotient = bar_core_quotient(lam, p)
                assert sigma(lam) == sigma(core) * quotient.sigma()
                assert from_core_quotient(core, quotient, p) == lam
                checked += 1
    report("criterion 3 (sign identity + roundtrip n<=30)", f"{checked} cases exact")


def test_criterion_4_doubling():
    """Empty strict component iff empty middle component of the double, n<=20."""
    checked = 0
    for n in range(21):
        for lam in bar_partitions(n):
            mu = doubling(lam)
            assert mu.n == 2 * n
            for p in (3, 5, 7):
                _, quotient = bar_core_quotient(lam, p)
                _, dq = partition_core_quotient(mu, p)
                assert (quotient.lambda0.n == 0) == (dq[(p + 1) // 2 - 1].n == 0)
                checked += 1
    report("criterion 4 (doubling property n<=20)", f"{checked} cases exact")


def test_criterion_5_counting():
    """|basic set| = Brauer count = Z-rank for all blocks, n<=12, p in {3,5,7}."""
    fixture1 = BlockId(SYM, 3, BarPartition(()), 1)
    fixture2 = BlockId(SYM, 3, BarPartition((1,)), 2)
    assert len(basic_set(fixture1)) == brauer_count(fixture1) == 2
    assert len(basic_set(fixture2)) == brauer_count(fixture2) == 2
    checked = 0
    for group in (SYM, ALT):
        for p in (3, 5, 7):
            for n in range(1, 13):
                for block, _ in block_partition(group, n, p):
                    rep = verify_basic_set(block)
                    rank = len(hnf(block_table(block).rows))
                    assert len(basic_set(block)) == brauer_count(block) == rank == rep.rank_full, block
                    checked += 1
    report("criterion 5 (counting)", f"{checked} blocks, all three counts agree")


def test_criterion_6_broue_conditions():
    """Swap kernels satisfy both Broué conditions; the n=4 discrepancy is ±8."""
    checked = 0
    for p in (3, 5):
        for n in range(2, 10):
            for block, members in block_partition(SYM, n, p):
                for lam in sorted({x.lam.parts for x in members if x.tag != SELF}):
                    kernel = block_kernel(swap_J(block, BarPartition(lam)), block)
                    assert broue_check(kernel, p).passed, (block, lam)
                    checked += 1
    block = BlockId(SYM, 3, BarPartition((1,)), 1)
    # over both central translates of each class: t and zt
    KJ = expand_z(block_kernel(swap_J(block, BarPartition((4,))), block))
    KI = expand_z(block_kernel(identity_iso(block), block))
    t = next(c for c in KJ.source_classes if c.cls.pi == (4,) and c.z == 0)
    zt = next(c for c in KJ.source_classes if c.cls.pi == (4,) and c.z == 1)
    deltas = {
        (kernel_value(KJ, t, t) - kernel_value(KI, t, t)).as_rational(),
        (kernel_value(KJ, t, zt) - kernel_value(KI, t, zt)).as_rational(),
    }
    assert deltas == {8, -8}, deltas
    assert t.centralizer_order == 8
    assert all(int(d) % t.centralizer_order == 0 for d in deltas)
    report(
        "criterion 6 (Broué conditions)",
        f"{checked} swap kernels pass; n=4 discrepancy ±8, divisible by 8",
    )


def test_criterion_7_character_value_integrity():
    """Row orthogonality n<=8 (both covers) and oracle agreement n<=6."""
    for group in (SYM, ALT):
        for n in range(1, 9):
            classes = split_classes(n, group=group)
            vectors = [(x, value_vector(x, classes)) for x in labels(group, n)]
            for i, (x, vx) in enumerate(vectors):
                for y, vy in vectors[i:]:
                    want = 1 if x == y else 0
                    assert inner_product(vx, vy, classes) == want, (group, x, y)
    compared = 0
    for n in range(1, 7):
        for lam in bar_partitions(n):
            tag = SELF if sigma(lam) == 1 else PLUS
            x = SpinLabel(SYM, lam, tag)
            for pi in odd_partitions(n):
                c = next(k for k in split_classes(n) if k.pi == pi)
                assert Exact.from_rational(spin_value(lam.parts, pi)) == char_value(x, c)
                compared += 1
    report(
        "criterion 7 (value integrity)",
        f"orthogonality exact for n<=8 both covers; {compared} oracle values match",
    )


def test_criterion_8_label_level_transport():
    """Full generality is out of desk scope; the label-level transport holds n<=12."""
    checked = 0
    for group in (SYM, ALT):
        for p in (3, 5, 7):
            for n in range(1, 13):
                for block, _ in block_partition(group, n, p):
                    # every block, n = 1 and weight 0 too: its local side's basic labels count its Brauer characters
                    local = len(local_basic_labels(block.weight, p, local_side(block)))
                    assert local == brauer_count(block) == brauer_count_closed_form(block), block
                    assert local == len(basic_set(block)), block
                    if block.weight >= 1:
                        assert basic_set_transport(iso_I(block), block), block
                        checked += 1
    report(
        "criterion 8 (label-level transport)",
        f"{checked} positive-weight blocks map their basic sets onto the local basic labels; "
        "perfectness toward the local groups is not machine-checkable at desk scale and is "
        "covered by the property suites",
    )
