from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dynatomic.rationals import (
    divisors,
    enumerate_rationals_by_height,
    format_rational,
    is_mersenne_prime_exponent,
    mobius,
    naive_height,
    parse_rational,
    rationals_of_height,
    smallest_prime_factor,
)
from _oracles import brute_force_rational_count


class TestMobius:
    def test_one(self):
        assert mobius(1) == 1

    def test_squared_factor(self):
        assert mobius(4) == 0

    def test_two_primes(self):
        assert mobius(6) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            mobius(0)

    def test_divisor_sum_vanishes(self):
        # sum over divisors of mu is 1 at n = 1 and 0 beyond
        for n in range(2, 10001):
            assert sum(mobius(m) for m in divisors(n)) == 0
        assert sum(mobius(m) for m in divisors(1)) == 1


class TestDivisors:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, [1]), (6, [1, 2, 3, 6]), (12, [1, 2, 3, 4, 6, 12])],
    )
    def test_examples(self, n, expected):
        assert divisors(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisors(0)

    def test_ascending_no_duplicates(self):
        for n in range(1, 500):
            ds = divisors(n)
            assert ds == sorted(set(ds))
            assert all(n % d == 0 for d in ds)


class TestNaiveHeight:
    def test_paper_formula(self):
        assert naive_height(Fraction(3, 2)) == 3

    def test_zero(self):
        assert naive_height(Fraction(0)) == 1

    def test_six_cycle_parameter(self):
        assert naive_height(Fraction(-71, 48)) == 71

    @given(st.fractions(max_denominator=10**6))
    def test_negation_invariance(self, q):
        assert naive_height(q) == naive_height(-q)

    @given(st.fractions(max_denominator=10**6).filter(lambda q: q != 0))
    def test_inversion_invariance(self, q):
        assert naive_height(q) == naive_height(1 / q)


class TestSmallestPrimeFactor:
    def test_primes_and_a_composite(self):
        primes = [n for n in range(2, 30) if smallest_prime_factor(n) == n]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert smallest_prime_factor(2047) == 23  # 2^11 - 1 = 23 * 89
        with pytest.raises(ValueError):
            smallest_prime_factor(1)


class TestMersenne:
    @pytest.mark.parametrize("n,expected", [(4, False), (5, True), (11, False)])
    def test_examples(self, n, expected):
        assert is_mersenne_prime_exponent(n) is expected

    @pytest.mark.parametrize("n", [2, 3, 7, 13, 17, 19, 31, 61])
    def test_known_prime_exponents(self, n):
        assert is_mersenne_prime_exponent(n)

    @pytest.mark.parametrize("n", [1, 6, 23, 29, 37, 67])
    def test_known_composite_values(self, n):
        assert not is_mersenne_prime_exponent(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            is_mersenne_prime_exponent(0)


class TestEnumeration:
    def test_height_one(self):
        assert list(enumerate_rationals_by_height(1)) == [
            Fraction(-1),
            Fraction(0),
            Fraction(1),
        ]

    def test_height_two_adds_four(self):
        got = list(enumerate_rationals_by_height(2))
        assert got[:3] == [Fraction(-1), Fraction(0), Fraction(1)]
        assert set(got[3:]) == {
            Fraction(-2),
            Fraction(2),
            Fraction(-1, 2),
            Fraction(1, 2),
        }

    def test_order_key_strictly_increases(self):
        seen = list(enumerate_rationals_by_height(12))
        keys = [(naive_height(q), q.numerator, q.denominator) for q in seen]
        assert keys == sorted(keys)
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("h", [1, 2, 3, 7, 10, 25, 50])
    def test_count_matches_brute_force(self, h):
        assert len(list(enumerate_rationals_by_height(h))) == brute_force_rational_count(h)

    def test_every_value_reduced_and_bounded(self):
        for q in enumerate_rationals_by_height(9):
            assert naive_height(q) <= 9  # Fraction keeps gcd(num, den) = 1

    def test_exact_height_layer(self):
        for q in rationals_of_height(7):
            assert naive_height(q) == 7

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            list(enumerate_rationals_by_height(0))


class TestTextForm:
    @pytest.mark.parametrize("text", ["3/2", "-71/48", "5", "0", "-2"])
    def test_roundtrip(self, text):
        assert format_rational(parse_rational(text)) == text

    def test_integers_print_without_denominator(self):
        assert format_rational(Fraction(10, 2)) == "5"

    def test_whitespace_tolerated(self):
        assert parse_rational("  -7/4 ") == Fraction(-7, 4)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("seven halves")
