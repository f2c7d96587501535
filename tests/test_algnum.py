import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbars.algnum import AlgNum, squarefree_split, unit_product
from oracles import I, ONE, ZERO, Exact


def sqrt(m):
    return Exact.sqrt_int(m)


class TestBasics:
    def test_radical_reduction(self):
        assert sqrt(2) * sqrt(2) == Exact.from_rational(2)

    def test_i_squared(self):
        assert I * I == Exact.from_rational(-1)

    def test_squarefree_merge(self):
        assert sqrt(2) * sqrt(3) == sqrt(6)
        assert sqrt(8) == 2 * sqrt(2)
        assert sqrt(12) * sqrt(3) == Exact.from_rational(6)

    def test_squarefree_split(self):
        assert squarefree_split(1) == (1, 1)
        assert squarefree_split(12) == (2, 3)
        assert squarefree_split(49) == (7, 1)
        with pytest.raises(ValueError):
            squarefree_split(0)

    def test_unit_product_by_gcd_matches_factoring(self):
        # sqrt(d1) * sqrt(d2) = s * sqrt(d) with (s, d) = squarefree_split(d1 * d2)
        squarefree = [d for d in range(1, 301) if squarefree_split(d)[0] == 1]
        assert len(squarefree) == 183
        for d1 in squarefree:
            for d2 in squarefree:
                s, d = squarefree_split(d1 * d2)
                for e1 in (0, 1):
                    for e2 in (0, 1):
                        want = (-s if e1 and e2 else s), (d, (e1 + e2) % 2)
                        assert unit_product((d1, e1), (d2, e2)) == want, (d1, e1, d2, e2)

    def test_unit_keys_must_be_basis_units(self):
        # (4, 0) would be 2 written as sqrt(4), and compare unequal to 2
        for key in ((4, 0), (0, 0), (-3, 0), (2, 5), (12, 1), (3, -1)):
            with pytest.raises(ValueError):
                AlgNum({key: 1})
        with pytest.raises(ValueError):
            AlgNum({(4, 0): 0})
        # the keys the library makes still construct
        from spinbars.spinchar import _root_term

        for k1 in ((1, 0), (2, 1), (6, 0), (15, 1)):
            for k2 in ((3, 0), (10, 1), (1, 1)):
                c, key = unit_product(k1, k2)
                assert AlgNum({key: c}) == Exact({k1: 1}) * Exact({k2: 1})
        for m in range(1, 50):
            s, d = squarefree_split(m)
            assert sqrt(m) == AlgNum({(d, 0): s})
            for k in range(4):
                c, key = _root_term(k, m)
                assert AlgNum({key: c}) == Exact.i_power(k) * sqrt(m)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: AlgNum({(1, 0): 0.1}), id="float"),
            pytest.param(lambda: AlgNum({(1, 0): "1/3"}), id="string"),
            pytest.param(lambda: AlgNum({(2.0, 0): 1}), id="float-key"),
            pytest.param(lambda: Exact.from_rational(0.5), id="from_rational-float"),
            pytest.param(lambda: Exact.from_rational("1/2"), id="from_rational-string"),
        ],
    )
    def test_inexact_inputs_are_refused(self, build):
        # Fraction would round a float to its binary value and parse a string
        with pytest.raises(TypeError):
            build()

    def test_conjugation(self):
        v = ONE + 2 * I + sqrt(5)
        assert v.conjugate() == ONE - 2 * I + sqrt(5)
        assert v.conjugate().conjugate() == v

    def test_rational_interface(self):
        assert Exact.from_rational(Fraction(3, 2)).as_rational() == Fraction(3, 2)
        assert ZERO.as_rational() == 0
        with pytest.raises(ValueError):
            (ONE + I).as_rational()

    def test_equality_is_exact(self):
        assert sqrt(2) + sqrt(3) != sqrt(5)
        assert sqrt(2) - sqrt(2) == 0
        assert Exact.from_rational(Fraction(1, 3)) * 3 == ONE

    def test_i_power(self):
        assert Exact.i_power(0) == ONE
        assert Exact.i_power(1) == I
        assert Exact.i_power(2) == -ONE
        assert Exact.i_power(7) == -I

    def test_value_type_compares_only_with_values(self):
        # the library's AlgNum has no arithmetic and no rational coercion
        half = AlgNum({(1, 0): Fraction(1, 2), (3, 1): 2})
        assert half == AlgNum({(3, 1): Fraction(4, 2), (1, 0): Fraction(1, 2)})
        assert half.coefficients() == {(1, 0): Fraction(1, 2), (3, 1): Fraction(2)}
        assert hash(half) == hash(Exact.of(half)) and half == Exact.of(half) and Exact.of(half) == half
        assert AlgNum({(1, 0): 1}) != 1 and AlgNum() != 0 and not AlgNum()
        assert repr(half) == "AlgNum(1/2 + 2*sqrt(3)i)"

    def test_json(self):
        v = Exact.from_rational(Fraction(1, 2)) + 3 * I * sqrt(2)
        assert v.to_json() == {"re": [[1, 2, 1]], "im": [[3, 1, 2]]}


def random_algnum(rng):
    terms = {}
    for _ in range(rng.randrange(0, 4)):
        d = rng.choice([1, 2, 3, 5, 6])
        e = rng.randrange(2)
        terms[(d, e)] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    return Exact(terms)


class TestRingLaws:
    def test_randomized_associativity_and_conjugation(self):
        rng = random.Random(20240817)
        for _ in range(10_000):
            a, b, c = (random_algnum(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @given(st.integers(1, 60), st.integers(1, 60))
    @settings(max_examples=80, deadline=None)
    def test_sqrt_multiplicativity(self, a, b):
        assert sqrt(a) * sqrt(b) == sqrt(a * b)

    @given(st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 30))
    @settings(max_examples=80, deadline=None)
    def test_distributivity(self, x, y, d):
        u = Exact.from_rational(x) + sqrt(d) * I
        v = Exact.from_rational(y) + sqrt(d)
        w = I + sqrt(2)
        assert (u + v) * w == u * w + v * w
