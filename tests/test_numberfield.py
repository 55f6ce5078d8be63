import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dynatomic import numberfield, polynomials
from dynatomic.errors import NotQuadraticIrrational, ParentMismatchError
from dynatomic.factorq import factor_over_q
from dynatomic.numberfield import (
    QuadraticElement,
    _extract_square,
    QuotientAlgebra,
    apply_phi,
    as_quadratic,
    minimal_polynomial,
    realize_quadratic,
    subfield_degree,
)
from dynatomic.polynomials import Poly, _monic_scale
from _oracles import fraction_divmod, is_stored_form, subfield_degree_sweep, trial_extract_square

Z = Poly.identity()
CYCLO7 = Poly([1] * 7)


def rand_irreducible_monic(rng, max_degree=8):
    while True:
        deg = rng.randint(2, max_degree)
        f = Poly([Fraction(rng.randint(-6, 6)) for _ in range(deg)] + [Fraction(1)])
        if f.degree() == deg and factor_over_q(f).is_irreducible():
            return f


def rand_element(rng, algebra):
    return algebra.element(
        Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(algebra.degree)])
    )


def eval_at_quadratic(f: Poly, x: QuadraticElement) -> QuadraticElement:
    acc = QuadraticElement.rational(0)
    for c in reversed(f.coeffs):
        acc = acc * x + QuadraticElement.rational(c)
    return acc


class TestAlgebraArithmetic:
    def test_square_root_of_two(self):
        a = QuotientAlgebra(Z**2 - 2)
        x = a.generator()
        assert x * x == a.element(2)

    def test_reduction_by_modulus(self):
        a = QuotientAlgebra(Z**2 + Z + 2)
        x = a.generator()
        assert (x * x).representative == -Z - 2

    def test_multiplicative_identity(self):
        a = QuotientAlgebra(CYCLO7)
        rng = random.Random(3)
        x = rand_element(rng, a)
        assert x * a.one() == x

    def test_parent_mismatch(self):
        x = QuotientAlgebra(Z**2 - 2).generator()
        y = QuotientAlgebra(Z**2 - 3).generator()
        with pytest.raises(ParentMismatchError):
            x * y

    def test_field_inverse_via_power(self):
        # x^(q-1)-style sanity: x * x^-1 through minimal polynomial relation
        a = QuotientAlgebra(Z**2 - 2)
        x = a.generator() + 1  # 1 + sqrt(2), inverse is sqrt(2) - 1
        assert x * (a.generator() - 1) == a.one()

    def test_rational_elements_hash_like_the_rationals_they_equal(self):
        a = QuotientAlgebra(Z**3 + Fraction(1, 2) * Z + Fraction(37, 48))
        for q in (0, 3, -1, Fraction(-7, 12)):
            assert a.element(q) == q
            assert hash(a.element(q)) == hash(q)
            assert a.element(q) in {q} and q in {a.element(q)}
        assert a.element(Z) + 1 - a.element(Z) in {1}

    def test_scalar_mixing(self):
        a = QuotientAlgebra(Z**3 - 2)
        x = a.generator()
        assert (x + Fraction(1, 2)) - Fraction(1, 2) == x
        assert 3 * x == x + x + x

    def test_representative_roundtrip(self):
        a = QuotientAlgebra(Z**2 + Z + Fraction(37, 48))
        rng = random.Random(8)
        for _ in range(25):
            x = rand_element(rng, a)
            assert a.element(x.representative) == x

    def test_products_over_scaled_modulus(self):
        # modulus with denominators: products reduce in the basis w = 12*z, a
        # root of w^3 + 72*w + 1332
        modulus = Z**3 + Fraction(1, 2) * Z + Fraction(37, 48)
        a = QuotientAlgebra(modulus)
        assert a._int_modulus == (1332, 72, 0, 1)
        rng = random.Random(9)
        for _ in range(40):
            x, y = rand_element(rng, a), rand_element(rng, a)
            assert (x * y).representative == (x.representative * y.representative) % modulus
        x = a.generator() + Fraction(1, 3)
        assert (x**7).representative == (x.representative**7) % modulus


# large and pairwise coprime denominators make the scale of the modulus large
rationals = st.builds(
    Fraction,
    st.integers(-(10**9), 10**9),
    st.sampled_from([1, 2, 77, 1024, 3**9]) | st.integers(1, 10**6),
)


@st.composite
def modulus_and_rep(draw):
    """A rational modulus of degree 1..6 and a representative of degree deg m .. deg m + 8."""
    m = Poly(draw(st.lists(rationals, min_size=1, max_size=6)) + [draw(rationals.filter(bool))])
    n = draw(st.integers(m.degree(), m.degree() + 8))
    return m, Poly(draw(st.lists(rationals, min_size=n, max_size=n)) + [draw(rationals.filter(bool))])


class TestElementReduction:
    """`element` reduces in the scaled basis; the long division over Fraction is the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(modulus_and_rep())
    @example((Z**3 + Fraction(1, 2) * Z + Fraction(37, 48), Z**9 - Fraction(1, 3)))
    @example((Fraction(-5, 3) * Z + Fraction(2, 77), Z * Fraction(7, 1024)))
    def test_matches_fraction_remainder(self, case):
        m, r = case
        assert QuotientAlgebra(m).element(r).representative == fraction_divmod(r, m)[1]

    def test_division_and_algebra_share_the_monic_scale(self, monkeypatch):
        m = Z**3 + Fraction(1, 2) * Z + Fraction(37, 48)
        seen = []

        def spy(nums):
            seen.append((tuple(nums), _monic_scale(nums)))
            return seen[-1][1]

        monkeypatch.setattr(polynomials, "_monic_scale", spy)
        monkeypatch.setattr(numberfield, "_monic_scale", spy)
        divmod(Z**5, 3 * m)
        a = QuotientAlgebra(3 * m)
        # both take the numerators of the monic m = (37 + 24*z + 48*z^3)/48
        assert seen == [((37, 24, 0, 48), (12, [1332, 72, 0, 1]))] * 2
        assert a._int_modulus == (1332, 72, 0, 1)

        def refuse(*args):
            raise AssertionError("element went through Poly division")

        monkeypatch.setattr(Poly, "__divmod__", refuse)
        assert a.element(Z**5).representative == fraction_divmod(Z**5, m)[1]
        assert len(seen) == 2


@st.composite
def algebra_elements(draw):
    """An algebra with a rational modulus of degree 1..5 and three of its elements."""
    m, _ = draw(modulus_and_rep())
    a = QuotientAlgebra(m)
    small = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 7)])
    reps = st.lists(rationals | small, max_size=2 * a.degree + 2).map(Poly)
    return a, [a.element(r) for r in draw(st.lists(reps, min_size=3, max_size=3))]


class TestStoredForm:
    """Every AlgElement is stored reduced, as integer numerators over one denominator in lowest terms."""

    @settings(max_examples=200, deadline=None)
    @given(algebra_elements(), st.integers(0, 4))
    def test_operations_keep_the_stored_form(self, case, n):
        a, (x, y, z) = case
        results = [x, a.zero(), a.one(), a.generator(), x + y, x - y, -x, x * y, x**n,
                   x * y + z, 2 - x, Fraction(-5, 9) * y, x + 1, x - x]
        for e in results:
            assert is_stored_form(e) and len(e._nums) <= a.degree, e
            assert a.element(e.representative) == e
            back = pickle.loads(pickle.dumps(e))
            assert back == e and hash(back) == hash(e) and back.parent == a
        assert (x * y).representative == (x.representative * y.representative) % a.modulus
        assert (x + y).representative == x.representative + y.representative


class TestApplyPhi:
    def test_quadratic_example(self):
        a = QuotientAlgebra(Z**2 + Z + 2)
        assert apply_phi(a.generator(), 2, Fraction(1)).representative == -Z - 1

    def test_zero_maps_to_c(self):
        a = QuotientAlgebra(Z**2 + Z + 2)
        assert apply_phi(a.zero(), 2, Fraction(5)) == a.element(5)

    def test_squaring_in_cyclotomic(self):
        a = QuotientAlgebra(CYCLO7)
        z = a.generator()
        assert apply_phi(z, 2, Fraction(0)) == z * z

    def test_rejects_degree_one(self):
        a = QuotientAlgebra(Z**2 - 2)
        with pytest.raises(ValueError):
            apply_phi(a.generator(), 1, Fraction(0))


class TestMinimalPolynomial:
    def test_generator(self):
        assert minimal_polynomial(QuotientAlgebra(Z**2 - 2).generator()) == Z**2 - 2

    def test_constant(self):
        assert minimal_polynomial(QuotientAlgebra(Z**2 - 2).element(3)) == Z - 3

    def test_shifted_generator(self):
        x = QuotientAlgebra(Z**2 - 2).generator() + 1
        # (x - 1)^2 = 2 oracle
        assert minimal_polynomial(x) == Z**2 - 2 * Z - 1

    def test_gauss_period(self):
        z = QuotientAlgebra(CYCLO7).generator()
        assert minimal_polynomial(z + z**2 + z**4) == Z**2 + Z + 2

    def test_scaled_modulus_monic_and_vanishing(self):
        a = QuotientAlgebra(Z**3 + Fraction(1, 2) * Z + Fraction(37, 48))
        assert minimal_polynomial(a.generator()) == a.modulus
        rng = random.Random(19)
        for _ in range(20):
            x = rand_element(rng, a)
            m = minimal_polynomial(x)
            assert m.coefficient(m.degree()) == 1
            assert m(x) == a.zero()

    def test_vanishes_and_degree_divides(self):
        rng = random.Random(17)
        trials = 0
        while trials < 200:
            f = rand_irreducible_monic(rng, max_degree=8)
            a = QuotientAlgebra(f)
            x = rand_element(rng, a)
            m = minimal_polynomial(x)
            assert m(x) == a.zero()
            assert a.degree % m.degree() == 0
            trials += 1


class TestSubfieldDegree:
    def test_constants_generate_q(self):
        a = QuotientAlgebra(Z**2 + Z + 2)
        assert subfield_degree([a.element(-1), a.element(2)]) == 1

    def test_primitive_element(self):
        assert subfield_degree([QuotientAlgebra(Z**2 - 2).generator()]) == 2

    def test_gauss_period_field(self):
        z = QuotientAlgebra(CYCLO7).generator()
        assert subfield_degree([z + z**2 + z**4]) == 2

    def test_single_generator_matches_minpoly(self):
        rng = random.Random(29)
        for _ in range(100):
            f = rand_irreducible_monic(rng, max_degree=6)
            x = rand_element(rng, QuotientAlgebra(f))
            assert subfield_degree([x]) == minimal_polynomial(x).degree()

    def test_monotone_in_generators(self):
        rng = random.Random(31)
        for _ in range(40):
            f = rand_irreducible_monic(rng, max_degree=6)
            a = QuotientAlgebra(f)
            xs = [rand_element(rng, a) for _ in range(3)]
            d1 = subfield_degree(xs[:1])
            d2 = subfield_degree(xs[:2])
            d3 = subfield_degree(xs)
            assert d1 <= d2 <= d3
            assert a.degree % d3 == 0

    def test_agrees_with_primitive_element_sweep(self):
        rng = random.Random(37)
        for _ in range(30):
            f = rand_irreducible_monic(rng, max_degree=5)
            a = QuotientAlgebra(f)
            gens = [rand_element(rng, a) for _ in range(rng.randint(1, 3))]
            assert subfield_degree(gens) == subfield_degree_sweep(gens)

    def test_whole_field(self):
        z = QuotientAlgebra(CYCLO7).generator()
        assert subfield_degree([z]) == 6

    def test_mismatched_parents(self):
        with pytest.raises(ParentMismatchError):
            subfield_degree(
                [QuotientAlgebra(Z**2 - 2).generator(), QuotientAlgebra(Z**2 - 3).generator()]
            )

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            subfield_degree([])


class TestAsQuadratic:
    def test_discriminant_minus_seven(self):
        r1, r2 = as_quadratic(Z**2 + Z + 2)
        assert r1 == QuadraticElement(-7, Fraction(-1, 2), Fraction(1, 2))
        assert r2 == r1.conjugate()

    def test_six_cycle_base_point(self):
        r1, r2 = as_quadratic(Z**2 + 2 * Z + Fraction(37, 48))
        assert r1 == QuadraticElement(33, Fraction(-1), Fraction(1, 12))
        assert r2 == QuadraticElement(33, Fraction(-1), Fraction(-1, 12))

    def test_rational_roots_rejected(self):
        with pytest.raises(NotQuadraticIrrational):
            as_quadratic(Z**2 - 1)

    def test_double_root_rejected(self):
        with pytest.raises(NotQuadraticIrrational):
            as_quadratic(Z**2 + Z + Fraction(1, 4))

    def test_roots_satisfy_polynomial_exactly(self):
        rng = random.Random(41)
        checked = 0
        while checked < 60:
            f = Poly(
                [
                    Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                    Fraction(rng.randint(1, 9), rng.randint(1, 6)),
                ]
            )
            try:
                r1, r2 = as_quadratic(f)
            except NotQuadraticIrrational:
                continue
            zero = QuadraticElement.rational(0)
            assert eval_at_quadratic(f, r1) == zero
            assert eval_at_quadratic(f, r2) == zero
            assert r1.disc == r2.disc
            checked += 1

    def test_discriminant_squarefree(self):
        r1, _ = as_quadratic(Z**2 - 8)  # sqrt(8) = 2*sqrt(2)
        assert r1.disc == 2
        assert r1.b == 2

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            as_quadratic(Z**3 - 2)


class TestExtractSquare:
    @settings(max_examples=300, deadline=None)
    @given(
        root=st.integers(1, 10007),
        rest=st.integers(1, 10**6),
        other=st.sampled_from([1, 9973, 10007, 10009]),
        sign=st.sampled_from([1, -1]),
    )
    @example(root=10007, rest=1, other=1, sign=1)  # q^2 left after trial division
    @example(root=1, rest=10007, other=10009, sign=-1)  # q*r left
    @example(root=1, rest=1, other=1, sign=1)
    def test_matches_trial_division(self, root, rest, other, sign):
        n = sign * root * root * rest * other
        t, s = _extract_square(n)
        assert (t, s) == trial_extract_square(n)
        assert t * t * s == n

    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, (1, 0)),
            (-1, (1, -1)),
            (3000000037 * 1000000007, (1, 3000000037 * 1000000007)),
            (-3 * 1000000007**2, (1000000007, -3)),
            (2**5 * 3**3 * 1000000007**2, (2**2 * 3 * 1000000007, 6)),
            (1000000007 * 1000000009, (1, 1000000007 * 1000000009)),
        ],
    )
    def test_large_prime_factors(self, n, expected):
        assert _extract_square(n) == expected


class TestQuadraticElement:
    def test_text_forms(self):
        assert str(QuadraticElement(33, Fraction(-1), Fraction(1, 12))) == "-1 + 1/12*sqrt(33)"
        assert str(QuadraticElement(33, Fraction(-1, 4), Fraction(-1, 6))) == "-1/4 - 1/6*sqrt(33)"
        assert str(QuadraticElement.rational(Fraction(-7, 2))) == "-7/2"
        assert str(QuadraticElement(-7, Fraction(0), Fraction(1))) == "sqrt(-7)"

    def test_arithmetic_and_conjugation(self):
        x = QuadraticElement(5, Fraction(1, 2), Fraction(3, 2))
        y = QuadraticElement(5, Fraction(-1), Fraction(2))
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    def test_norm_is_rational(self):
        x = QuadraticElement(5, Fraction(1, 2), Fraction(3, 2))
        assert (x * x.conjugate()).is_rational()

    def test_mixed_field_rejected(self):
        x = QuadraticElement(5, Fraction(1), Fraction(1))
        y = QuadraticElement(7, Fraction(1), Fraction(1))
        with pytest.raises(ValueError):
            x + y

    def test_apply_phi(self):
        x = QuadraticElement(33, Fraction(-1), Fraction(1, 12))
        image = x.apply_phi(2, Fraction(-71, 48))
        assert image == QuadraticElement(33, Fraction(-1, 4), Fraction(-1, 6))


class TestRealizeQuadratic:
    def test_orbit_realization(self):
        modulus = Z**2 + Z + 2
        algebra = QuotientAlgebra(modulus)
        x = algebra.generator()
        values = realize_quadratic(modulus, [x, apply_phi(x, 2, Fraction(1))])
        root1, _ = as_quadratic(modulus)
        assert values[0] == root1
        assert values[1] == root1.apply_phi(2, Fraction(1))
