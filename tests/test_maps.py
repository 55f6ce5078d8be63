import gc
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynatomic.errors import DegreeGuardError
from dynatomic.maps import (
    MapSpec,
    dynatomic_degree,
    dynatomic_poly,
    dynatomic_poly_generic,
    verify_product_identity,
)
from dynatomic import numberfield, polynomials
from dynatomic.numberfield import QuotientAlgebra
from dynatomic.polynomials import Poly, _monic_scale, _scaled_lift, format_bipoly
from dynatomic.rationals import divisors, enumerate_rationals_by_height, mobius
from _oracles import evaluate_c, fraction_divmod, iterate, lift_common_denominator

Z = Poly.identity()


class TestIterate:
    def test_two_steps(self):
        assert iterate(MapSpec(2, Fraction(1)), 2) == Z**4 + 2 * Z**2 + 2

    def test_zero_steps_is_identity(self):
        assert iterate(MapSpec(3, Fraction(-7, 2)), 0) == Z

    def test_cubic_one_step(self):
        assert iterate(MapSpec(3, Fraction(-1)), 1) == Z**3 - 1

    def test_degree_grows_like_d_power_n(self):
        spec = MapSpec(3, Fraction(2, 5))
        for n in range(4):
            assert iterate(spec, n).degree() == 3**n

    def test_no_iterates_retained_between_calls(self):
        cs = list(itertools.islice(enumerate_rationals_by_height(6), 40))
        dynatomic_poly(MapSpec(2, Fraction(1, 7)), 5)
        gc.collect()
        tracemalloc.start()
        try:
            for c in cs:
                dynatomic_poly(MapSpec(2, c), 5)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 16 * 1024, held

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            iterate(MapSpec(2, Fraction(0)), -1)


class TestMapSpec:
    def test_rejects_degree_one(self):
        with pytest.raises(ValueError):
            MapSpec(1, Fraction(0))

    def test_coerces_c(self):
        assert MapSpec(2, 3).c == Fraction(3)


class TestDynatomicPoly:
    def test_period_one(self):
        assert dynatomic_poly(MapSpec(2, Fraction(5, 9)), 1) == Z**2 - Z + Fraction(5, 9)

    def test_period_two_long_division_oracle(self):
        spec = MapSpec(2, Fraction(-4, 7))
        numerator = iterate(spec, 2) - Z
        denominator = iterate(spec, 1) - Z
        assert dynatomic_poly(spec, 2) * denominator == numerator
        assert dynatomic_poly(spec, 2) == Z**2 + Z + Fraction(3, 7)

    def test_period_three_at_zero(self):
        assert dynatomic_poly(MapSpec(2, Fraction(0)), 3) == (Z**8 - Z).exact_div(Z**2 - Z)

    def test_monic(self):
        for n in (1, 2, 3, 4):
            assert dynatomic_poly(MapSpec(2, Fraction(3, 5)), n).leading_coefficient() == 1


PINNED_C = [Fraction(-71, 48), Fraction(7, 10), Fraction(-9, 10), Fraction(1, 3)]


class TestScaledDivision:
    """Phi_N through the scaled Z[x] division against the long division over Fraction."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("c", PINNED_C, ids=str)
    def test_dynatomic_matches_fraction_division(self, d, c):
        chain = [Z]
        for _ in range(6):
            chain.append(chain[-1] ** d + c)
        for n in range(1, 7):
            numerator = denominator = Poly.one()
            for m in divisors(n):
                if mobius(n // m) == 1:
                    numerator = numerator * (chain[m] - Z)
                elif mobius(n // m) == -1:
                    denominator = denominator * (chain[m] - Z)
            q, r = fraction_divmod(numerator, denominator)
            assert r.is_zero()
            assert dynatomic_poly(MapSpec(d, c), n) == q

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("c", PINNED_C, ids=str)
    def test_scale_of_iterates(self, d, c):
        b = c.denominator
        for m in range(1, 5):
            h = iterate(MapSpec(d, c), m) - Z
            s, big_g = _monic_scale(h._nums)
            assert lift_common_denominator(h.coeffs, s) == (big_g, 1)
            assert _scaled_lift(h._nums, h._den, s) == (big_g, 1)
            assert big_g[-1] == 1  # s^D * h(u/s) is monic in Z[u]
            assert lift_common_denominator(h.coeffs, b)[1] == 1  # so would be the scale b
            # the greedy scale is b for phi - z and, at d = 2, for odd b; in
            # general it can fall below b (24 at c = -71/48, m = 2) or exceed it
            if m == 1 or (d == 2 and b % 2):
                assert s == b


def scaled_dividends(module, run):
    """The dividends `module._zz_divmod` receives while run() runs."""
    seen, divide = [], polynomials._zz_divmod

    def spy(f, g):
        seen.append(list(f))
        return divide(f, g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_zz_divmod", spy)
        run()
    return seen


rationals = st.builds(
    Fraction, st.integers(-(10**6), 10**6), st.sampled_from([1, 2, 48, 77, 3**9]) | st.integers(1, 999)
)


class TestLeastLift:
    """Division and `QuotientAlgebra.element` lift by the least L: the Fraction-input lift is the oracle."""

    @staticmethod
    def check(f, h):
        s = _monic_scale(h.monic()._nums)[0]
        want = lift_common_denominator(f.coeffs, s)[0]
        assert scaled_dividends(polynomials, lambda: divmod(f, h)) == [want]
        a = QuotientAlgebra(h)
        assert scaled_dividends(numberfield, lambda: a.element(f)) == [want]

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("c", PINNED_C, ids=str)
    def test_iterates(self, d, c):
        spec = MapSpec(d, c)
        for m in range(1, 4):
            h = iterate(spec, m) - Z
            self.check(iterate(spec, m + 1) - Z, h)
            self.check(iterate(spec, m + 1) * Fraction(5, 6), h * Fraction(-7, 9))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=5), st.lists(rationals, min_size=1, max_size=12))
    def test_random(self, h, f):
        h, f = Poly(h + [Fraction(-2, 3)]), Poly(f)
        if f.degree() >= h.degree():
            self.check(f, h)


class TestDynatomicGeneric:
    def test_period_two(self):
        assert format_bipoly(dynatomic_poly_generic(2, 2)) == "z^2 + z + (c + 1)"

    def test_period_one(self):
        assert format_bipoly(dynatomic_poly_generic(2, 1)) == "z^2 - z + c"

    def test_cubic_period_one(self):
        assert format_bipoly(dynatomic_poly_generic(3, 1)) == "z^3 - z + c"

    def test_specialization_commutes_50_random(self):
        rng = random.Random(61)
        pool = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 4)] + [(4, 1), (4, 2)]
        for _ in range(50):
            d, n = pool[rng.randrange(len(pool))]
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert evaluate_c(dynatomic_poly_generic(d, n), c) == dynatomic_poly(MapSpec(d, c), n)


class TestDynatomicDegree:
    @pytest.mark.parametrize(
        "d,n,expected", [(2, 1, 2), (2, 6, 54), (3, 2, 6), (2, 4, 12), (2, 11, 2046)]
    )
    def test_examples(self, d, n, expected):
        assert dynatomic_degree(d, n) == expected

    def test_degree_matches_constructed_polynomial(self):
        for d, n_max in ((2, 8), (3, 5), (4, 5)):
            for n in range(1, n_max + 1):
                got = dynatomic_poly(MapSpec(d, Fraction(0)), n).degree()
                assert got == dynatomic_degree(d, n), (d, n)

    def test_guard_refuses_oversized(self):
        with pytest.raises(DegreeGuardError):
            dynatomic_poly(MapSpec(3, Fraction(0)), 8)  # degree 6480
        with pytest.raises(DegreeGuardError):
            dynatomic_poly_generic(2, 13)

    def test_product_identity_guards_each_divisor(self):
        with pytest.raises(DegreeGuardError, match="N=13"):
            verify_product_identity(MapSpec(2, Fraction(0)), 26)


class TestProductIdentity:
    def test_single_factor(self):
        assert verify_product_identity(MapSpec(2, Fraction(1)), 1)

    def test_period_two_expansion(self):
        assert verify_product_identity(MapSpec(2, Fraction(-1)), 2)

    def test_six_cycle_parameter(self):
        assert verify_product_identity(MapSpec(2, Fraction(-71, 48)), 6)

    def test_battery_quadratic(self):
        cs = list(enumerate_rationals_by_height(10))
        rng = random.Random(101)
        sample = [cs[rng.randrange(len(cs))] for _ in range(8)]
        for c in sample:
            for n in range(1, 7):
                assert verify_product_identity(MapSpec(2, c), n), (c, n)

    def test_battery_cubic(self):
        rng = random.Random(103)
        cs = list(enumerate_rationals_by_height(10))
        sample = [cs[rng.randrange(len(cs))] for _ in range(4)]
        for c in sample:
            for n in range(1, 6):
                assert verify_product_identity(MapSpec(3, c), n), (c, n)
