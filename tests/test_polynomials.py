import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dynatomic.errors import (
    DegreeGuardError,
    NonExactDivisionError,
    PolynomialZeroDivisionError,
)
from dynatomic.polynomials import (
    DEGREE_GUARD,
    BiPoly,
    Poly,
    format_bipoly,
    format_poly,
    parse_poly,
    _convolve,
    _gf_divmod,
    _lift_common_denominator,
    _zz_add,
    _zz_derivative,
    _zz_divmod,
    _zz_gcd,
    _zz_sub,
)
from dynatomic.factorq import factor_over_q
from _oracles import fraction_divmod, naive_gcd

Z = Poly.identity()


def rand_poly(rng, max_degree, max_abs=9, max_den=5):
    deg = rng.randint(0, max_degree)
    coeffs = [
        Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_den))
        for _ in range(deg + 1)
    ]
    return Poly(coeffs)


def rand_nonzero_poly(rng, max_degree, **kw):
    while True:
        p = rand_poly(rng, max_degree, **kw)
        if not p.is_zero():
            return p


def derivative(p):
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


def numerators(p):
    return [c.numerator for c in p.coeffs]


def zz_gcd_over_q(f, g):
    """Monic gcd over Q through the integer gcd on lifted numerators."""
    h = Poly(_zz_gcd(_lift_common_denominator(f.coeffs)[0], _lift_common_denominator(g.coeffs)[0]))
    return h.monic() if h else h


class TestCompose:
    def test_square_plus_one_selfcompose(self):
        f = Z**2 + 1
        assert f(f) == Poly([2, 0, 2, 0, 1])

    def test_identity_inner(self):
        f = Poly([3, Fraction(-1, 2), 0, 7])
        assert f(Z) == f

    def test_identity_outer(self):
        f = Poly([3, Fraction(-1, 2), 0, 7])
        assert Z(f) == f

    def test_degree_multiplies(self):
        rng = random.Random(7)
        for _ in range(20):
            f = rand_nonzero_poly(rng, 4)
            g = rand_nonzero_poly(rng, 4)
            if f.degree() >= 1 and g.degree() >= 1:
                assert f(g).degree() == f.degree() * g.degree()

    def test_associative_on_random_triples(self):
        rng = random.Random(11)
        for _ in range(100):
            f, g, h = (rand_poly(rng, 5) for _ in range(3))
            assert f(g(h)) == f(g)(h)


class TestExactDiv:
    def test_difference_of_squares(self):
        assert (Z**2 - 1).exact_div(Z - 1) == Z + 1

    def test_second_dynatomic_shape(self):
        # (phi^2(z) - z) / (phi(z) - z) at symbolic-free c: verified by multiply-back
        c = Fraction(5, 3)
        numerator = Z**4 + 2 * c * Z**2 - Z + Poly.constant(c * c + c)
        denominator = Z**2 - Z + Poly.constant(c)
        expected = Z**2 + Z + Poly.constant(c + 1)
        assert denominator * expected == numerator
        assert numerator.exact_div(denominator) == expected

    def test_nonexact_raises(self):
        with pytest.raises(NonExactDivisionError):
            (Z**2 + 1).exact_div(Z - 1)

    def test_zero_divisor_raises(self):
        with pytest.raises(PolynomialZeroDivisionError):
            (Z**2 + 1).exact_div(Poly.zero())

    def test_roundtrip_500_random(self):
        rng = random.Random(2024)
        for _ in range(500):
            f = rand_poly(rng, 20)
            g = rand_nonzero_poly(rng, 20)
            assert (f * g).exact_div(g) == f

    def test_divmod_reconstructs(self):
        rng = random.Random(5)
        for _ in range(200):
            f = rand_poly(rng, 12)
            g = rand_nonzero_poly(rng, 6)
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree() < g.degree()


# large and pairwise coprime denominators make the scale s of the Z[x] division large
rationals = st.builds(
    Fraction,
    st.integers(-(10**12), 10**12),
    st.sampled_from([1, 2, 77, 1024, 3**9]) | st.integers(1, 10**6),
)
nonzero_rationals = rationals.filter(bool)
polys = st.lists(rationals, max_size=14).map(Poly)
divisor_polys = st.builds(lambda low, lc: Poly(low + [lc]), st.lists(rationals, max_size=6), nonzero_rationals)


class TestScaledDivision:
    """divmod over Q runs in Z[x]; the long division over Fraction is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(f=polys, g=divisor_polys)
    @example(f=Poly.zero(), g=Z**2 + Fraction(1, 77))
    @example(f=Z + 1, g=Z**3 * Fraction(-5, 3) + 7)  # deg f < deg g
    @example(f=Z**5 * Fraction(3, 1024) - Fraction(1, 3**9), g=Poly.constant(Fraction(-77, 2)))
    @example(
        f=Z**9 - Fraction(1, 3),
        g=Poly([Fraction(1, 77), Fraction(1, 3**9), Fraction(1, 1024), Fraction(2, 5)]),
    )
    def test_matches_fraction_division(self, f, g):
        assert divmod(f, g) == fraction_divmod(f, g)
        assert f % g == fraction_divmod(f, g)[1]

    @settings(max_examples=100, deadline=None)
    @given(q=polys, g=divisor_polys, r=polys)
    def test_exact_div_raises_on_remainder(self, q, g, r):
        r = fraction_divmod(r, g)[1]  # deg r < deg g
        if r.is_zero():
            assert (q * g).exact_div(g) == q
        else:
            with pytest.raises(NonExactDivisionError):
                (q * g + r).exact_div(g)


class TestIntegerKernel:
    def test_convolve_empty_operand(self):
        assert _convolve([], [1, 2]) == []
        assert _convolve([3, -1], []) == []
        assert _convolve([], []) == []

    def test_divmod_matches_rational_division(self):
        rng = random.Random(41)
        outcomes = {True: 0, False: 0}
        for trial in range(400):
            g = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
            g.append(rng.choice([1, -1, 2, -3, 4, 6]))
            if trial % 2:
                # integral quotient by construction: f = q*g + r, exact every other time
                q0 = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
                r0 = [rng.randint(-9, 9) for _ in range(len(g) - 1)] if trial % 4 == 1 else []
                f = numerators(Poly(q0) * Poly(g) + Poly(r0))
            else:
                f = [rng.randint(-20, 20) for _ in range(rng.randint(0, 12))]
            f = f + [0] * rng.randint(0, 2)  # trailing zeros are allowed in f
            q, r = fraction_divmod(Poly(f), Poly(g))
            integral = all(c.denominator == 1 for c in q.coeffs)
            outcomes[integral] += 1
            got = _zz_divmod(f, g)
            if integral:
                assert got == (numerators(q), numerators(r))
            else:
                assert got is None
        assert min(outcomes.values()) >= 50

    @settings(max_examples=300, deadline=None)
    @given(
        f=st.lists(st.integers(-(10**6), 10**6), max_size=16),
        g=st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=7),
        modulus=st.sampled_from(
            # (modulus, prime); a composite modulus needs a monic divisor
            [(2, True), (3, True), (13, True), (2**31 - 1, True),
             (4, False), (12, False), (49, False), (3**40, False)]
        ),
    )
    def test_gf_divmod_identity(self, f, g, modulus):
        p, prime = modulus
        if not prime:
            g[-1] = 1
        elif g[-1] % p == 0:
            g[-1] += 1
        q, r = _gf_divmod(f, g, p)
        assert all(c % p == 0 for c in _zz_sub(f, _zz_add(_convolve(q, g), r)))
        assert len(r) < len(g)  # deg r < deg g
        assert all(0 <= c < p for c in q + r)
        assert q[-1:] != [0] and r[-1:] != [0]


class TestGcd:
    def test_matches_naive_euclid(self):
        rng = random.Random(31)
        for _ in range(120):
            f = rand_nonzero_poly(rng, 8)
            g = rand_nonzero_poly(rng, 8)
            h = rand_nonzero_poly(rng, 4)
            assert zz_gcd_over_q(f * h, g * h) == naive_gcd(f * h, g * h)

    def test_common_factor_detected(self):
        rng = random.Random(32)
        for _ in range(50):
            h = rand_nonzero_poly(rng, 4)
            if h.degree() < 1:
                continue
            f = rand_nonzero_poly(rng, 5) * h
            g = rand_nonzero_poly(rng, 5) * h
            assert zz_gcd_over_q(f, g).degree() >= h.degree()

    @staticmethod
    def checked_gcd(f, g):
        """_zz_gcd(f, g), checked against the Euclid oracle and by exact division."""
        got = _zz_gcd(f, g)
        assert Poly(got) == Poly(_lift_common_denominator(naive_gcd(Poly(f), Poly(g)).coeffs)[0])
        for u in (f, g):
            if any(u):
                assert _zz_divmod(u, got)[1] == []
        return got

    def test_unlucky_first_prime(self):
        h = [3, -1, 1]
        f, g = _convolve([0, 1], h), _convolve([2, 1], h)
        assert [c % 2 for c in f] == [c % 2 for c in g]  # gcd mod 2 is f itself, of degree 3
        assert self.checked_gcd(f, g) == h

    def test_prime_divides_one_leading_coefficient(self):
        # 2 divides lc f only, so f mod 2 drops a degree; gcd(lc f, lc g) = 1
        f = _convolve([1, 2], [-3, 1])
        g = _convolve([-3, 1], [5, 1])
        assert self.checked_gcd(f, g) == [-3, 1]

    def test_large_negative_coefficients_take_several_primes(self):
        big = 10**12
        h = [-(7 * big + 1), 3 * big + 7, -(5 * big + 3), big + 13]
        f = _convolve([1, 1], h)
        g = _convolve([-2, 3], _convolve(h, h))
        assert self.checked_gcd(f, g) == h
        # (z - 1)^3 (z + 2) against its derivative: the gcd (z - 1)^2 has a negative coefficient
        f = _convolve(_convolve([-1, 1], [-1, 1]), _convolve([-1, 1], [2, 1]))
        assert self.checked_gcd(f, _zz_derivative(f)) == [1, -2, 1]

    def test_zero_operands_and_coprime_pair(self):
        assert _zz_gcd([], []) == []
        assert self.checked_gcd([], [0, -2, 4]) == [0, -1, 2]
        assert self.checked_gcd([6, 4, 0], []) == [3, 2]
        assert self.checked_gcd([1, 0, 1], [-1, 1]) == [1]
        assert self.checked_gcd([12], [0, 18]) == [1]

    @settings(max_examples=80, deadline=None)
    @given(*[st.lists(st.integers(-30, 30), min_size=1, max_size=6).filter(any)] * 3)
    def test_common_factor_recovered(self, f, g, h):
        got = self.checked_gcd(_convolve(f, h), _convolve(g, h))
        assert len(got) > Poly(h).degree()


class TestSquarefree:
    def test_double_root(self):
        f = Z**2 + Z + Fraction(1, 4)
        # gcd-with-derivative oracle
        assert naive_gcd(f, derivative(f)) == Z + Fraction(1, 2)
        assert f.squarefree_decomposition() == [(2 * Z + 1, 2)]

    def test_already_squarefree(self):
        f = Z**2 - 1
        assert f.squarefree_decomposition() == [(Z**2 - 1, 1)]

    def test_planted_multiplicities(self):
        f = (Z - 1) ** 3 * (Z + 2)
        assert sorted(f.squarefree_decomposition(), key=lambda t: t[1]) == [
            (Z + 2, 1),
            (Z - 1, 3),
        ]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Poly.zero().squarefree_decomposition()

    def test_reassembles_200_random(self):
        rng = random.Random(77)
        for _ in range(200):
            parts = []
            f = Poly.one()
            for mult in range(1, rng.randint(2, 4)):
                p = rand_nonzero_poly(rng, 3)
                if p.degree() < 1:
                    continue
                parts.append((p, mult))
                f = f * p**mult
            if f.degree() < 1:
                continue
            rebuilt = Poly.one()
            for p, mult in f.squarefree_decomposition():
                rebuilt = rebuilt * p**mult
            # equal up to the leading constant
            assert rebuilt.monic() == f.monic()

    def test_parts_pairwise_coprime_and_squarefree(self):
        f = (Z - 1) ** 2 * (Z + 3) ** 2 * (Z**2 + 1)
        decomp = f.squarefree_decomposition()
        for i, (p, _) in enumerate(decomp):
            assert naive_gcd(p, derivative(p)).degree() == 0
            for q, _ in decomp[i + 1 :]:
                assert naive_gcd(p, q).degree() == 0


class TestPrimitiveIntegerForm:
    """factor_over_q splits off the rational content from primitive integer factors."""

    def test_clears_denominators(self):
        fac = factor_over_q(Fraction(1, 2) * Z**2 + Fraction(3, 2))
        assert fac.factors == ((Z**2 + 3, 1),)
        assert fac.content == Fraction(1, 2)

    def test_six_cycle_style_denominators(self):
        fac = factor_over_q(Z**2 + Z + Fraction(37, 48))
        assert fac.factors == ((48 * Z**2 + 48 * Z + 37, 1),)
        assert fac.content == Fraction(1, 48)

    def test_sign_normalization(self):
        fac = factor_over_q(-2 * Z)
        assert fac.factors == ((Z, 1),)
        assert fac.content == -2

    def test_reconstructs(self):
        rng = random.Random(13)
        for _ in range(100):
            f = rand_nonzero_poly(rng, 9)
            if f.degree() < 1:
                continue
            fac = factor_over_q(f)
            assert fac.expand() == f
            for p, _ in fac.factors:
                assert all(c.denominator == 1 for c in p.coeffs)
                assert p.leading_coefficient() > 0


class TestBiPoly:
    def c(self):
        return BiPoly.parameter()

    def test_second_dynatomic_division(self):
        z, c = BiPoly.identity(), BiPoly.parameter()
        numerator = z**4 + (c + c) * z * z - z + c * c + c
        denominator = z * z - z + c
        quotient = numerator.exact_div(denominator)
        one = BiPoly((Poly.one(),))
        assert quotient == z * z + z + c + one

    def test_specialization_commutes_with_arithmetic(self):
        rng = random.Random(23)
        z, c = BiPoly.identity(), BiPoly.parameter()
        for _ in range(100):
            # random small bivariate polynomials built from z and c
            f = z * z + c * rng.randint(-4, 4) + z * rng.randint(-4, 4)
            g = z + c * c * rng.randint(-3, 3) + rng.randint(-3, 3) * c
            value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert (f * g).evaluate_c(value) == f.evaluate_c(value) * g.evaluate_c(value)
            assert (f + g).evaluate_c(value) == f.evaluate_c(value) + g.evaluate_c(value)

    def test_nonexact_bivariate_division(self):
        z, c = BiPoly.identity(), BiPoly.parameter()
        with pytest.raises(NonExactDivisionError):
            (z * z + c).exact_div(z + c)

    def test_pickle_roundtrip(self):
        z, c = BiPoly.identity(), BiPoly.parameter()
        for f in (BiPoly.zero(), z, c, (z * z + Fraction(-3, 4) * c) ** 3 - z):
            back = pickle.loads(pickle.dumps(f))
            assert type(back) is BiPoly and back == f and hash(back) == hash(f)

    def test_equality_agrees_with_difference(self):
        z, c = BiPoly.identity(), BiPoly.parameter()
        samples = [BiPoly.zero(), BiPoly((3,)), BiPoly((Fraction(-1, 2),)), c, c * c - 1, z, z + 3]
        others = [0, 3, -1, Fraction(-1, 2), Poly.zero(), Poly.constant(3), Z, Z * Z - 1]
        for f in samples:
            for g in others:
                assert (f == g) == (f - g).is_zero(), (f, g)
                assert (g == f) == (f == g), (f, g)
        assert BiPoly((3,)) == 3
        assert c * c - 1 == Z * Z - 1
        assert z != Z

    def test_equal_values_hash_alike(self):
        for value in (0, 3, Fraction(-1, 2)):
            assert hash(BiPoly((value,))) == hash(Poly.constant(value)) == hash(value)
            assert value in {BiPoly((value,))} and BiPoly((value,)) in {Poly.constant(value)}
        # a Poly operand of a BiPoly is a polynomial in c
        assert BiPoly.parameter() == Z and hash(BiPoly.parameter()) == hash(Z)

    def test_pow_matches_repeated_mul(self):
        f = BiPoly.identity() ** 2 + BiPoly.parameter()
        assert f**3 == f * f * f
        assert f**0 == 1
        with pytest.raises(ValueError):
            f ** -1


class TestTextForm:
    def test_canonical_example(self):
        f = Z**6 + Fraction(-7, 4) * Z**3 + Fraction(1, 2)
        assert format_poly(f) == "z^6 + (-7/4)*z^3 + 1/2"

    def test_integer_negative_uses_minus(self):
        assert format_poly(Z**2 - Z) == "z^2 - z"

    def test_zero(self):
        assert format_poly(Poly.zero()) == "0"
        assert parse_poly("0") == Poly.zero()

    def test_bipoly_parenthesized_coefficients(self):
        z, c = BiPoly.identity(), BiPoly.parameter()
        one = BiPoly((Poly.one(),))
        assert format_bipoly(z * z + z + c + one) == "z^2 + z + (c + 1)"
        assert format_bipoly(z * z - z + c) == "z^2 - z + c"

    @pytest.mark.parametrize(
        "text",
        [
            "z^6 + (-7/4)*z^3 + 1/2",
            "z^2 - z",
            "z + 1",
            "-z^3 + 2*z - 5",
            "3/2",
            "z",
            "-z",
        ],
    )
    def test_roundtrip_from_text(self, text):
        assert format_poly(parse_poly(text)) == text

    def test_whitespace_insensitive(self):
        assert parse_poly("z^2+z+(  -1/2 )*z") == parse_poly("z^2 + 1/2*z")

    @settings(max_examples=200)
    @given(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=12),
            min_size=0,
            max_size=8,
        )
    )
    def test_roundtrip_random(self, coeffs):
        f = Poly(coeffs)
        assert parse_poly(format_poly(f)) == f

    @pytest.mark.parametrize("text", ["z^", "1//2", "z^-1", "(z + 1", "q^2", "z**2"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_poly(text)

    def test_degree_guard(self):
        assert parse_poly(f"z^{DEGREE_GUARD} - 1").degree() == DEGREE_GUARD
        with pytest.raises(DegreeGuardError):
            parse_poly(f"z^{DEGREE_GUARD + 1} - 1")
        # the guard reads the degree, not the largest power written
        assert parse_poly(f"z^{DEGREE_GUARD + 1} + z - z^{DEGREE_GUARD + 1}") == Z


class TestRingBasics:
    @settings(max_examples=150)
    @given(
        st.lists(st.fractions(max_denominator=9), max_size=6),
        st.lists(st.fractions(max_denominator=9), max_size=6),
    )
    def test_mul_commutes(self, a, b):
        assert Poly(a) * Poly(b) == Poly(b) * Poly(a)

    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]).degree() == 1

    def test_pow_matches_repeated_mul(self):
        f = Z**2 - Fraction(1, 3)
        assert f**4 == f * f * f * f
        assert f**0 == Poly.one()

    def test_pickle_roundtrip(self):
        for f in (Poly.zero(), Poly.one(), Z**5 - Fraction(7, 3) * Z + Fraction(1, 9)):
            back = pickle.loads(pickle.dumps(f))
            assert type(back) is Poly and back == f and hash(back) == hash(f)

    def test_equality_agrees_with_difference(self):
        samples = [Poly.zero(), Poly.one(), Poly.constant(Fraction(-5, 3)), Z, Z + 2]
        others = [0, 1, 2, -5, Fraction(-5, 3), Fraction(1, 2)]
        for f in samples:
            for g in others:
                assert (f == g) == (f - g).is_zero(), (f, g)
                assert (g == f) == (f == g), (f, g)
        assert Z != "z"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Z._coeffs = ()
        with pytest.raises(AttributeError):
            BiPoly.identity()._coeffs = ()

    def test_evaluate(self):
        f = Z**3 - 2 * Z + 1
        assert f(Fraction(1, 2)) == Fraction(1, 8)
