import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbars import barcomb
from spinbars.barcomb import (
    MR_BOUND,
    BarPartition,
    BarQuotient,
    Partition,
    _pair_to_partition,
    bar_core_quotient,
    bar_partitions,
    bar_removals,
    delta_bar,
    is_bar_core,
    is_odd_prime,
    partitions,
    sigma,
)
from oracles import (
    _pair_from_partition,
    cores_by_removal,
    core_by_rim_hooks,
    delta_values_all_orders,
    doubling,
    from_core_quotient,
    is_odd_prime_by_trial_division,
    partition_core_quotient,
    partitions_by_filter,
    rebuild_from_ordinary_quotient,
    strict_partitions_by_filter,
)

strict_parts = st.sets(st.integers(1, 24), min_size=0, max_size=6).map(
    lambda s: BarPartition(tuple(sorted(s, reverse=True)))
)


class TestIsOddPrime:
    def test_matches_trial_division(self):
        assert all(is_odd_prime(p) == is_odd_prime_by_trial_division(p) for p in range(-3, 10**5))

    def test_rejects_pseudoprimes(self):
        # a strong pseudoprime to the bases 2, 3, 5 and 7, then Carmichael numbers
        for c in (3215031751, 561, 1105, 1729, 2465, 2821, 6601, 41041, 825265):
            assert not is_odd_prime(c), c

    def test_large_inputs_are_fast(self):
        start = time.perf_counter()
        assert is_odd_prime(100000000000031)
        assert is_odd_prime(2**61 - 1)
        assert not is_odd_prime(2**67 - 1)  # 193707721 * 761838257287
        assert not is_odd_prime((10**9 + 7) * (10**9 + 9))
        assert time.perf_counter() - start < 0.5

    def test_refuses_at_the_bound(self):
        # the bound itself is a strong pseudoprime to the first 13 prime bases
        for p in (MR_BOUND, MR_BOUND + 2, 10**25 - 1):
            with pytest.raises(ValueError, match=str(MR_BOUND)):
                is_odd_prime(p)


@pytest.mark.parametrize(
    "cls, parts", [(Partition, (2.0, 1)), (BarPartition, (3.0, 1)), (BarPartition, ("3", 1)), (BarPartition, (3, 0.5))]
)
def test_partition_parts_must_be_integers(cls, parts):
    # a float part would pass the order checks and spread through bar_core_quotient
    with pytest.raises(TypeError):
        cls(parts)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: sigma(Partition((2, 2))), id="sigma"),
        pytest.param(lambda: is_bar_core(Partition((2, 2)), 3), id="is_bar_core"),
        pytest.param(lambda: delta_bar(Partition((4, 4)), 3), id="delta_bar"),
        pytest.param(lambda: bar_core_quotient(Partition((2, 2)), 3), id="bar_core_quotient"),
        pytest.param(lambda: bar_core_quotient(Partition((2, 1)), 3), id="bar_core_quotient-strict-partition"),
        pytest.param(lambda: BarQuotient(Partition((1, 1)), {}, 3), id="BarQuotient-lambda0"),
        pytest.param(lambda: BarQuotient(BarPartition(()), {1: (1,)}, 3), id="BarQuotient-tuple-component"),
        pytest.param(
            lambda: BarQuotient(BarPartition(()), {1: BarPartition((1,))}, 3), id="BarQuotient-bar-component"
        ),
    ],
)
def test_bar_inputs_must_be_bar_partitions(call):
    # a plain Partition may repeat a part: sigma, is_bar_core and delta_bar
    # answered for (2, 2) and (4, 4) as if it were strict
    with pytest.raises(TypeError):
        call()


class TestEnumeration:
    def test_zero(self):
        assert bar_partitions(0) == [BarPartition(())]

    def test_six(self):
        got = {bp.parts for bp in bar_partitions(6)}
        assert got == {(6,), (5, 1), (4, 2), (3, 2, 1)}
        assert len(got) == 4

    def test_seven_count(self):
        assert len(bar_partitions(7)) == 5

    @pytest.mark.parametrize("n", range(13))
    def test_against_filter_oracle(self, n):
        assert {bp.parts for bp in bar_partitions(n)} == strict_partitions_by_filter(n)
        assert {mu.parts for mu in partitions(n)} == partitions_by_filter(n)
        assert {type(mu) for mu in partitions(n)} == {Partition}

    def test_lexicographic_descending(self):
        for n in range(13):
            for seq in ([bp.parts for bp in bar_partitions(n)], [mu.parts for mu in partitions(n)]):
                assert seq == sorted(set(seq), reverse=True)

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            BarPartition((3, 3))
        with pytest.raises(ValueError):
            BarPartition((2, -1))
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_bar_partition_is_a_strict_partition(self):
        lam = BarPartition((2, 1))
        assert isinstance(lam, Partition) and (lam.n, lam.length) == (3, 2)
        # the generated equality compares classes, so the two kinds never meet
        assert lam != Partition((2, 1)) and Partition((2, 1)) != lam
        assert repr(lam) == "BarPartition(2, 1)" and repr(Partition((2, 1))) == "Partition(2, 1)"
        assert Partition((2, 2)).parts == (2, 2)
        with pytest.raises(ValueError, match=r"^parts must be strictly decreasing: \(2, 2\)$"):
            BarPartition((2, 2))
        with pytest.raises(ValueError, match=r"^parts must be weakly decreasing: \(1, 2\)$"):
            Partition((1, 2))
        with pytest.raises(ValueError, match=r"^parts must be positive: \(2, 0\)$"):
            BarPartition((2, 0))


class TestSigma:
    def test_empty(self):
        assert sigma(BarPartition(())) == 1

    def test_examples(self):
        assert sigma(BarPartition((3, 2, 1))) == -1
        assert sigma(BarPartition((7,))) == 1


class TestBarCoreQuotient:
    def test_431(self):
        core, q = bar_core_quotient(BarPartition((4, 3, 1)), 3)
        assert core.parts == (4, 1)
        assert q.weight == 1
        assert q.lambda0.parts == (1,)
        assert q.components[0].parts == ()

    def test_54(self):
        core, q = bar_core_quotient(BarPartition((5, 4)), 3)
        assert core.parts == ()
        assert q.weight == 3

    def test_52_is_core(self):
        core, q = bar_core_quotient(BarPartition((5, 2)), 3)
        assert core.parts == (5, 2)
        assert q.weight == 0
        assert is_bar_core(BarPartition((5, 2)), 3)

    def test_invalid_p(self):
        for p in (2, 4, 9, 1):
            with pytest.raises(ValueError):
                bar_core_quotient(BarPartition((3,)), p)

    @pytest.mark.parametrize("p", [3, 5])
    def test_core_matches_removal_oracle(self, p):
        for n in range(11):
            for lam in bar_partitions(n):
                reachable = cores_by_removal(lam.parts, p)
                assert len(reachable) == 1
                core, q = bar_core_quotient(lam, p)
                assert core.parts == next(iter(reachable))
                assert core.n + p * q.weight == lam.n
                assert is_bar_core(lam, p) == (q.weight == 0)

    def test_injective(self):
        for p in (3, 5):
            for n in range(13):
                seen = set()
                for lam in bar_partitions(n):
                    core, q = bar_core_quotient(lam, p)
                    key = (core.parts, q.lambda0.parts, tuple(c.parts for c in q.components))
                    assert key not in seen
                    seen.add(key)

    def test_stores_only_occupied_components(self):
        # (5, 2) is one 7-bar on the residue pair {2, 5}; for larger p it is a core
        lam = BarPartition((5, 2))
        core, q = bar_core_quotient(lam, 7)
        assert core.parts == () and q.occupied == ((2, Partition((1,))),)
        assert q.components == (Partition(()), Partition((1,)), Partition(()))
        assert q == BarQuotient(BarPartition(()), dict(enumerate(q.components, 1)), 7)
        assert q == BarQuotient(BarPartition(()), {3: Partition(()), 2: Partition((1,))}, 7)
        # neither the quotient nor the work grows with p
        big = 100000000000031
        core, q = bar_core_quotient(lam, big)
        assert core == lam and q.occupied == () and q.weight == 0
        assert from_core_quotient(core, q, big) == lam

    def test_tests_p_once_and_builds_the_checked_quotient(self, monkeypatch):
        # the split builds its quotient without BarQuotient's checks, so p is tested only once
        calls = []
        test = barcomb.is_odd_prime
        monkeypatch.setattr(barcomb, "is_odd_prime", lambda p: calls.append(p) or test(p))
        for p in (3, 5, 7, 43):
            for n in range(13):
                for lam in bar_partitions(n):
                    calls.clear()
                    _, q = bar_core_quotient(lam, p)
                    assert calls == [p]
                    assert q == BarQuotient(q.lambda0, dict(q.occupied), p)

    def test_quotient_refuses_pairs_out_of_range(self):
        for pair in (0, 2):
            with pytest.raises(ValueError, match="residue pairs run from 1 to 1"):
                BarQuotient(BarPartition(()), {pair: Partition((1,))}, 3)


class TestFromCoreQuotient:
    def test_weight_zero_fixed_point(self):
        lam = BarPartition((5, 2))
        empty_q = BarQuotient(BarPartition(()), {1: Partition(())}, 3)
        assert from_core_quotient(lam, empty_q, 3) == lam

    def test_single_strip_reconstruction(self):
        q = BarQuotient(BarPartition((1,)), {1: Partition(())}, 3)
        assert from_core_quotient(BarPartition((1,)), q, 3).parts == (3, 1)

    def test_111_component(self):
        q = BarQuotient(BarPartition(()), {1: Partition((1, 1, 1))}, 3)
        lam = from_core_quotient(BarPartition(()), q, 3)
        core, back = bar_core_quotient(lam, 3)
        assert core.parts == () and back == q

    def test_invalid_core(self):
        q = BarQuotient(BarPartition(()), {1: Partition(())}, 3)
        with pytest.raises(ValueError):
            from_core_quotient(BarPartition((3,)), q, 3)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_roundtrip(self, p):
        for n in range(13):
            for lam in bar_partitions(n):
                core, q = bar_core_quotient(lam, p)
                assert from_core_quotient(core, q, p) == lam

    @given(strict_parts)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random(self, lam):
        core, q = bar_core_quotient(lam, 5)
        assert from_core_quotient(core, q, 5) == lam


class TestMayaPairs:
    @given(
        st.frozensets(st.integers(0, 10), max_size=5),
        st.frozensets(st.integers(0, 10), max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_pair_roundtrip(self, aset, bset):
        charge, mu = _pair_to_partition(aset, bset)
        assert charge == len(aset) - len(bset)
        assert _pair_from_partition(charge, mu) == (aset, bset)


class TestDeltaBar:
    def test_core_is_plus_one(self):
        for p in (3, 5):
            for n in range(9):
                for lam in bar_partitions(n):
                    if is_bar_core(lam, p):
                        assert delta_bar(lam, p) == 1

    @pytest.mark.parametrize("lam,p", [((5, 4), 3), ((4, 3, 1), 3)])
    def test_order_independent_examples(self, lam, p):
        values = delta_values_all_orders(lam, p, bar_removals)
        assert len(values) == 1
        assert delta_bar(BarPartition(lam), p) == next(iter(values))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_order_independent_sweep(self, p):
        for n in range(15):
            for lam in bar_partitions(n):
                values = delta_values_all_orders(lam.parts, p, bar_removals)
                assert values == {delta_bar(lam, p)}


class TestDoubling:
    def test_examples(self):
        assert doubling(BarPartition(())).parts == ()
        assert doubling(BarPartition((1,))).parts == (2,)
        assert doubling(BarPartition((2, 1))).parts == (3, 3)

    def test_size(self):
        for n in range(15):
            for lam in bar_partitions(n):
                assert doubling(lam).n == 2 * n

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_middle_component_detects_divisible_parts(self, p):
        # emptiness of the middle quotient component of the double matches
        # emptiness of the strict quotient component
        for n in range(13):
            for lam in bar_partitions(n):
                _, q = bar_core_quotient(lam, p)
                _, dq = partition_core_quotient(doubling(lam), p)
                assert (q.lambda0.n == 0) == (dq[(p + 1) // 2 - 1].n == 0), lam


class TestPartitionCoreQuotient:
    def test_core_fixed_point(self):
        mu = Partition((2,))
        core, q = partition_core_quotient(mu, 3)
        assert core == mu and all(c.n == 0 for c in q)

    def test_33(self):
        core, q = partition_core_quotient(Partition((3, 3)), 3)
        assert core.parts == ()
        assert sum(c.n for c in q) == 2

    def test_matches_rim_hook_oracle(self):
        for p in (2, 3, 5):
            for m in range(9):
                for mu in partitions(m):
                    reachable = core_by_rim_hooks(mu.parts, p)
                    assert len(reachable) == 1
                    core, _ = partition_core_quotient(mu, p)
                    assert core.parts == next(iter(reachable))

    def test_roundtrip_against_inverse_abacus(self):
        for p in (2, 3, 5):
            for m in range(13):
                for mu in partitions(m):
                    core, q = partition_core_quotient(mu, p)
                    rebuilt = rebuild_from_ordinary_quotient(
                        core.parts, tuple(c.parts for c in q), p
                    )
                    assert rebuilt == mu.parts

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            partition_core_quotient(Partition((2,)), 1)


class TestSignIdentity:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_eq_sign_split(self, p):
        for n in range(19):
            for lam in bar_partitions(n):
                core, q = bar_core_quotient(lam, p)
                assert sigma(lam) == sigma(core) * q.sigma()
                assert q.sigma() == (-1) ** (q.weight - q.lambda0.length)
