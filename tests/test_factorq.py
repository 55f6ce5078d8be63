import random
from fractions import Fraction
from itertools import combinations, takewhile
from math import ceil, log2

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import _oracles
from dynatomic import factorq, polynomials
from dynatomic.factorq import (
    Factorization, _berlekamp_basis, _frobenius_echelon, _frobenius_rows, _gf_pow_mod,
    _recombination_bound, _select_prime, _zz_factor_squarefree, factor_over_q,
)
from dynatomic.maps import MapSpec, dynatomic_poly
from dynatomic.polynomials import (
    _STRUCT_CODES, Poly, _convolve, _monic_scale, _slot_bytes, _slot_unpack, _zz_divmod,
)
from dynatomic.rationals import enumerate_rationals_by_height, primes
from _oracles import (
    brute_force_irreducible, clustering_factor_candidates, expand, full_bound_factor_squarefree,
    gated_factor_squarefree, high_precision_roots, list_frobenius_rows, list_nullspace_basis,
    naive_gcd, resultant_mod_p,
)

Z = Poly.identity()


def make_irreducible(rng, max_degree=4):
    """Random irreducible polynomial from families with planted irreducibility."""
    kind = rng.randint(0, 2)
    if kind == 0:  # linear, always irreducible
        return Z * rng.randint(1, 5) + rng.randint(-9, 9)
    if kind == 1:  # quadratic with negative discriminant
        b = rng.randint(-4, 4)
        return Z**2 + b * Z + Poly.constant(b * b + rng.randint(1, 9))
    # Eisenstein at 2: z^k + 2*a*z + 2 with odd constant contribution controlled
    k = rng.randint(2, max_degree)
    return Z**k + 2 * rng.randint(-3, 3) * Z + 2


class TestFactorExamples:
    def test_difference_of_squares(self):
        fac = factor_over_q(Z**2 - 1)
        assert fac.content == 1
        assert fac.factors == ((Z - 1, 1), (Z + 1, 1))

    def test_third_dynatomic_at_zero_is_irreducible(self):
        f = Poly([1] * 7)  # the period-3 dynatomic polynomial at c = 0
        assert dynatomic_poly(MapSpec(2, Fraction(0)), 3) == f
        assert brute_force_irreducible(f)  # independent clustering oracle
        fac = factor_over_q(f)
        assert fac.is_irreducible()

    def test_third_dynatomic_at_minus_two_splits(self):
        f = dynatomic_poly(MapSpec(2, Fraction(-2)), 3)
        fac = factor_over_q(f)
        assert len(fac.factors) > 1
        assert expand(fac) == f
        # cross-check the found factors against the clustering oracle
        oracle_factors = {p for p in clustering_factor_candidates(f) if p.degree() == 3}
        got = {p.monic() for p, _ in fac.factors}
        assert got == oracle_factors
        assert got == {
            Z**3 - 3 * Z + 1,
            Z**3 + Z**2 - 2 * Z - 1,
        }

    def test_fourth_dynatomic_at_zero_reducible(self):
        f = dynatomic_poly(MapSpec(2, Fraction(0)), 4)
        assert not factor_over_q(f).is_irreducible()

    def test_content_and_multiplicity(self):
        f = (2 * Z + 1) ** 2 * (Z - 3) * Fraction(5, 7)
        fac = factor_over_q(f)
        assert expand(fac) == f
        assert dict((p, m) for p, m in fac.factors) == {2 * Z + 1: 2, Z - 3: 1}

    def test_rejects_constants_and_zero(self):
        with pytest.raises(ValueError):
            factor_over_q(Poly.zero())
        with pytest.raises(ValueError):
            factor_over_q(Poly.constant(5))


class TestFactorProperties:
    def test_roundtrip_200_random_products(self):
        rng = random.Random(424)
        for _ in range(200):
            f = Poly.one()
            planted = []
            for _ in range(rng.randint(1, 3)):
                p = make_irreducible(rng)
                planted.append(p)
                f = f * p
            fac = factor_over_q(f)
            assert expand(fac) == f

    def test_output_factors_irreducible_by_oracle(self):
        rng = random.Random(99)
        for _ in range(40):
            f = Poly.one()
            for _ in range(rng.randint(1, 3)):
                f = f * make_irreducible(rng, max_degree=3)
            for p, _ in factor_over_q(f).factors:
                if p.degree() <= 8:
                    assert brute_force_irreducible(p)

    def test_merge_of_coprime_factorizations(self):
        rng = random.Random(7)
        for _ in range(40):
            f = make_irreducible(rng) * make_irreducible(rng)
            g = make_irreducible(rng)
            if naive_gcd(f, g).degree() != 0:
                continue
            merged = factor_over_q(f * g)
            separate: dict[Poly, int] = {}
            for part in (factor_over_q(f), factor_over_q(g)):
                for p, m in part.factors:
                    separate[p] = separate.get(p, 0) + m
            assert dict(merged.factors) == separate

    def test_determinism(self):
        f = dynatomic_poly(MapSpec(2, Fraction(-2)), 4)
        assert factor_over_q(f) == factor_over_q(f)

    def test_canonical_order(self):
        fac = factor_over_q((Z - 2) * (Z + 1) * (Z**2 + 1))
        degrees = [p.degree() for p, _ in fac.factors]
        assert degrees == sorted(degrees)
        same_degree = [p for p, _ in fac.factors if p.degree() == 1]
        keys = [tuple(reversed(p.coeffs)) for p in same_degree]
        assert keys == sorted(keys)

    def test_big_denominator_factorization(self):
        # quadratic factors with denominator 48, same shape as the 6-cycle data
        f = (Z**2 + 2 * Z + Fraction(37, 48)) * (Z**2 + Z + Fraction(1, 48))
        fac = factor_over_q(f)
        assert expand(fac) == f
        assert [p.degree() for p, _ in fac.factors] == [2, 2]

    def test_splits_mod_every_prime_but_irreducible(self):
        # minimal polynomial of sqrt(2) + sqrt(3): reducible mod every prime,
        # so the recombination search actually has to work
        f = Z**4 - 10 * Z**2 + 1
        assert factor_over_q(f).is_irreducible()
        assert brute_force_irreducible(f)

    def test_recombination_of_hard_quartics(self):
        f = (Z**4 - 10 * Z**2 + 1) * (Z**4 - 2)
        fac = factor_over_q(f)
        assert expand(fac) == f
        assert sorted(p.degree() for p, _ in fac.factors) == [4, 4]

    def test_nonmonic_factors(self):
        # cubic has no rational roots (checked +-1, +-1/3), quadratic has disc < 0
        f = (3 * Z**3 + 2 * Z + 1) * (2 * Z**2 + 7 * Z + 11)
        fac = factor_over_q(f)
        assert expand(fac) == f
        assert sorted(p.degree() for p, _ in fac.factors) == [2, 3]

    def test_recombination_with_leading_coefficient_and_z_factor(self):
        # every prime splits the quartic, so recombination runs with lc 96 once z
        # is found; pruning on q | rest(0) rather than q | lc * rest(0) rejects 2z + 3
        f = Z * (2 * Z + 3) * (3 * Z**2 + 5) * (16 * Z**4 - 40 * Z**2 + 1)
        fac = factor_over_q(f)
        assert expand(fac) == f
        assert [p.degree() for p, _ in fac.factors] == [1, 1, 2, 4]


def _squarefree_parts(f):
    return [[c.numerator for c in part.coeffs] for part, _ in f.squarefree_decomposition()]


# irreducible over Q and split mod every prime (minimal polynomials of
# sqrt(2) + sqrt(3) and sqrt(2) + sqrt(7)), so recombination has work to do
SPLIT_QUARTICS = ([1, 0, -10, 0, 1], [25, 0, -18, 0, 1])


def _random_factor(draw, degree):
    lead = draw(st.integers(1, 2**64))
    return [draw(st.integers(-9, 9)) for _ in range(degree)] + [lead]


@st.composite
def _products(draw):
    """z^e times factors with leading coefficients up to 2^64, several of one degree."""
    degree = draw(st.integers(1, 3))
    parts = [_random_factor(draw, degree) for _ in range(draw(st.integers(1, 3)))]
    parts += [_random_factor(draw, draw(st.integers(1, 4))) for _ in range(draw(st.integers(0, 2)))]
    for a in draw(st.lists(st.integers(1, 3), max_size=2)):  # a^4 z^4 - 10 a^2 z^2 + 1
        parts.append([1, 0, -10 * a * a, 0, a**4])
    f = [0] * draw(st.integers(0, 2)) + [1]
    for part in parts:
        f = _convolve(f, part)
    return Poly(f)


def _divisions_tried(module, run, part):
    """Sorted factors of part by run, and how many trial divisions module made."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_zz_divmod", lambda f, g: calls.append(g) or _zz_divmod(f, g))
        return sorted(run(part)), len(calls)


class TestRecombination:
    """Zassenhaus on the half-degree bound, the complement rule and the trace gate."""

    @settings(max_examples=60, deadline=None)
    @given(_products())
    def test_factor_lists_match_the_full_bound_oracle(self, f):
        for part in _squarefree_parts(f):
            got = sorted(_zz_factor_squarefree(part))
            assert got == sorted(full_bound_factor_squarefree(part))
            product = [1]
            for g in got:
                product = _convolve(product, g)
            assert product == part

    def test_gated_products_with_leading_coefficients(self):
        # z times dense factors of degree 3 to 5 with lc != 1, which split mod p
        # into factors of degree >= 3: a gate that drops b or reads another
        # coefficient than F_i[deg F_i - 1] rejects a true factor here
        rng = random.Random(31)
        for _ in range(30):
            f = [0, 1]
            for _ in range(rng.randint(2, 3)):
                degree = rng.randint(3, 5)
                f = _convolve(f, [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(2, 2**64)])
            for part in _squarefree_parts(Poly(f)):
                assert sorted(_zz_factor_squarefree(part)) == sorted(full_bound_factor_squarefree(part))

    def test_gate_rejects_before_trial_division(self):
        # Phi_6(z, 0) is a product of cyclotomic polynomials, so rest(0) = 1 and
        # the trailing-coefficient prune passes every subset; only the gate can
        # spare trial divisions that the ungated loop makes
        (part,) = _squarefree_parts(dynatomic_poly(MapSpec(2, Fraction(0)), 6))
        got, tried = _divisions_tried(factorq, _zz_factor_squarefree, part)
        want, oracle_tried = _divisions_tried(_oracles, full_bound_factor_squarefree, part)
        assert got == want
        assert tried < oracle_tried

    def test_values_at_one_and_minus_one_prune_before_trial_division(self):
        # most gated candidates of Phi_6(z, 0) that do not divide rest take a
        # value at 1 or -1 that does not divide rest's (47 divisions -> 4)
        (part,) = _squarefree_parts(dynatomic_poly(MapSpec(2, Fraction(0)), 6))
        got, tried = _divisions_tried(factorq, _zz_factor_squarefree, part)
        want, oracle_tried = _divisions_tried(_oracles, gated_factor_squarefree, part)
        assert got == want
        assert tried < oracle_tried

    @settings(max_examples=60, deadline=None)
    @given(_products(), st.sampled_from([[-1, 1], [1, 1], [-1, 0, 1]]))
    @example(Poly(_convolve(*SPLIT_QUARTICS)), [-1, 0, 1])
    def test_prune_at_one_and_minus_one_keeps_every_factor(self, f, units):
        # a factor z - 1 or z + 1 makes rest(1) or rest(-1) zero, and each
        # candidate holding it is zero there too: both pass, as 0 divides 0,
        # and no true factor is ever pruned, so the prune is only necessary
        for part in _squarefree_parts(f * Poly(units)):
            got, tried = _divisions_tried(factorq, _zz_factor_squarefree, part)
            want, oracle_tried = _divisions_tried(_oracles, gated_factor_squarefree, part)
            assert got == want
            assert tried <= oracle_tried

    def test_bound_covers_every_half_degree_split(self):
        rng = random.Random(23)
        polys = [Z**30 - 1, Z**24 - 1, (Z**2 - 4) * (Z**2 - 9) * (Z**2 - 1) * Z * (Z**2 - 2)]
        for _ in range(20):
            f = Poly.one()
            for _ in range(rng.randint(2, 5)):
                f = f * Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 99)])
            polys.append(f)
        for f in polys:
            (part, _), *more = f.squarefree_decomposition()
            if more:
                continue
            ints = [c.numerator for c in part.coeffs]
            bound = _recombination_bound(ints)
            irreducibles = [[c.numerator for c in g.coeffs] for g, _ in factor_over_q(part).factors]
            n = len(ints) - 1
            for size in range(1, len(irreducibles)):
                for subset in combinations(irreducibles, size):
                    g = [1]
                    for u in subset:
                        g = _convolve(g, u)
                    if 2 * (len(g) - 1) > n:
                        continue
                    h, r = _zz_divmod(ints, g)
                    assert not r
                    assert max(abs(h[-1] * c) for c in g) <= bound

    def test_complement_side_rebuilt_when_the_minimal_subset_is_large(self):
        # g is irreducible mod 11, where each quartic splits into two quadratics:
        # the first true subset is g's one factor of degree 9 > 17 / 2, so the
        # quartics' side is rebuilt, g is kept and their product stays as rest
        g = [-2, 2, 2, 3, -2, 0, -2, 5, -2, 3]
        f = _convolve(_convolve(g, SPLIT_QUARTICS[0]), SPLIT_QUARTICS[1])
        p, modular = _select_prime(f)
        assert (p, sorted(len(u) - 1 for u in modular)) == (11, [2, 2, 2, 2, 9])
        expected = sorted([g, *SPLIT_QUARTICS])
        assert sorted(_zz_factor_squarefree(f)) == expected
        assert sorted(full_bound_factor_squarefree(f)) == expected


class TestIsIrreducible:
    def test_quadratic_without_roots(self):
        assert factor_over_q(Z**2 + Z + 1).is_irreducible()

    def test_difference_of_squares(self):
        assert not factor_over_q(Z**2 - 1).is_irreducible()

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            factor_over_q(Poly.constant(3))

    def test_repeated_factor_not_irreducible(self):
        assert not factor_over_q((Z + 1) ** 2).is_irreducible()

    @pytest.mark.parametrize("n,expected", [(2, True), (3, True), (4, False), (5, True)])
    def test_dynatomic_at_zero_vs_mersenne(self, n, expected):
        f = dynatomic_poly(MapSpec(2, Fraction(0)), n)
        assert factor_over_q(f).is_irreducible() is expected

    def test_dynatomic_at_minus_two(self):
        f = dynatomic_poly(MapSpec(2, Fraction(-2)), 3)
        assert factor_over_q(f).is_irreducible() is False


class TestFactorization:
    def test_expand_and_degree_bookkeeping(self):
        f = dynatomic_poly(MapSpec(2, Fraction(-2)), 5)
        fac = factor_over_q(f)
        assert isinstance(fac, Factorization)
        assert sum(p.degree() * m for p, m in fac.factors) == f.degree()
        assert sorted(p.degree() for p, m in fac.factors for _ in range(m)) == [5, 10, 15]

    def test_builds_a_fraction_for_the_content_only(self, monkeypatch):
        # factors stay integer lists from the squarefree split to the Factorization
        f = dynatomic_poly(MapSpec(2, Fraction(-71, 48)), 6)
        built = []

        class Counted(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return Fraction(*args, **kwargs)

        monkeypatch.setattr(factorq, "Fraction", Counted)
        monkeypatch.setattr(polynomials, "Fraction", Counted)
        fac = factor_over_q(f)
        monkeypatch.undo()
        assert f.degree() == 54 and [p.degree() for p, _ in fac.factors] == [2, 2, 2, 48]
        assert [Fraction(*args) for args in built] == [fac.content]


class TestHenselStep:
    """The quadratic lift runs its divisions mod m^2; its invariants must hold there."""

    def _check_lifts(self, g_int, h_int, p, steps, top=None):
        from dynatomic.factorq import _gf_gcdex, _hensel_step
        from dynatomic.polynomials import _convolve, _trunc_sym, _zz_add, _zz_sub

        f = _convolve(g_int, h_int)
        g, h = _trunc_sym(g_int, p), _trunc_sym(h_int, p)
        s, t = (_trunc_sym(x, p) for x in _gf_gcdex(g, h, p))
        m = p
        for _ in range(steps):
            m = min(m * m, top or m * m)  # a last step may stop below m^2, at top
            g, h, s, t = _hensel_step(m, f, g, h, s, t)
            assert h[-1] == 1 and len(h) == len(h_int)
            assert not _trunc_sym(_zz_sub(f, _convolve(g, h)), m)
            bezout = _zz_sub(_zz_add(_convolve(s, g), _convolve(t, h)), [1])
            assert not _trunc_sym(bezout, m)
        # the lifted factors are the integer ones once m exceeds twice their coefficients
        assert (g, h) == (g_int, h_int)

    def test_lifts_recover_large_integer_factors(self):
        # a non-monic cofactor with coefficients far above p; the fifth step
        # stops at 5^20, a proper divisor of (5^16)^2
        self._check_lifts([-98765, 4321, 0, 777, 12346], [31337, -2718, 1, 1], 5, 5, 5**20)

    def test_random_coprime_pairs(self):
        from dynatomic.polynomials import _gf_gcd

        rng = random.Random(7)
        done = 0
        while done < 20:
            g = [rng.randint(-999, 999) for _ in range(rng.randint(2, 7))] + [rng.randint(1, 50)]
            h = [rng.randint(-999, 999) for _ in range(rng.randint(1, 6))] + [1]
            p = rng.choice([3, 5, 7, 11])
            if g[-1] % p == 0 or len(_gf_gcd(g, h, p)) != 1:
                continue
            self._check_lifts(g, h, p, 4)
            done += 1

    def test_step_count_exact(self, monkeypatch):
        """ceil(log2 l) steps for l > 1 (one at l = 1), the last one stopping at p^l."""
        import dynatomic.factorq as factorq

        moduli, updates = [], []

        def step(m, f, g, h, s, t, bezout=True):
            moduli.append(m)
            updates.append(bezout)
            return g, h, s, t

        monkeypatch.setattr(factorq, "_hensel_step", step)
        for l in range(1, 10**4 + 1):
            moduli.clear()
            updates.clear()
            tree = factorq._hensel_tree(2, 1, [[0, 1], [1, 1]])
            factorq._hensel_lift(tree, [0, 1, 1], 1 << l)
            assert len(moduli) == (ceil(log2(l)) if l > 1 else 1)
            top = 1 << l
            assert moduli[-1] == top and (len(moduli) == 1 or moduli[-2] < top)
            # only the last step skips the Bezout update: a later lift of the tree makes it up
            assert updates == [True] * (len(updates) - 1) + [False]

    @pytest.mark.parametrize("c, n", [("-2", 6), ("1/2", 7), ("-71/48", 6)])
    def test_a_lift_goes_on_from_where_it_stopped(self, c, n):
        # a lift leaves each Bezout pair one update behind and the next lift
        # makes it up, so a tree lifted to p^a and then on to p^b gives the
        # factors of a fresh lift to p^b
        f = _phi_part(c, n)
        p, modular = _select_prime(f)
        fresh = lambda l: factorq._hensel_lift(factorq._hensel_tree(p, f[-1], modular), f, p**l)
        for a, b in [(1, 2), (3, 7), (5, 40), (9, 17)]:
            tree = factorq._hensel_tree(p, f[-1], modular)
            assert factorq._hensel_lift(tree, f, p**a) == fresh(a)
            assert factorq._hensel_lift(tree, f, p**b) == fresh(b)

    def test_last_step_factors_do_not_need_the_bezout_update(self):
        from dynatomic.factorq import _gf_gcdex, _hensel_step
        from dynatomic.polynomials import _convolve, _gf_gcd, _trunc_sym

        rng = random.Random(11)
        done = 0
        while done < 20:
            g = [rng.randint(-999, 999) for _ in range(rng.randint(2, 12))] + [rng.randint(1, 50)]
            h = [rng.randint(-999, 999) for _ in range(rng.randint(1, 12))] + [1]
            p = rng.choice([3, 5, 7, 11])
            if g[-1] % p == 0 or len(_gf_gcd(g, h, p)) != 1:
                continue
            f = _convolve(g, h)
            s, t = (_trunc_sym(x, p) for x in _gf_gcdex(g, h, p))
            g, h = _trunc_sym(g, p), _trunc_sym(h, p)
            m = p
            for _ in range(rng.randint(0, 3)):
                m *= m
                g, h, s, t = _hensel_step(m, f, g, h, s, t)
            top = m * m // rng.choice([1, p])  # a last step may stop below m^2
            full = _hensel_step(top, f, g, h, s, t)
            assert _hensel_step(top, f, g, h, s, t, bezout=False) == full[:2] + (None, None)
            done += 1


PACKED_PRIMES = [2, 3, 5, 7, 11, 13, 65521]
# the largest prime below 2^29: n(p-1)^2 + p fits in 64 bits up to n = 64 and
# (2n-1)(p-1)^2 up to n = 32, so these sizes and one more put slots on both
# sides of the 8-byte edge, where the packer leaves struct for to_bytes
P29 = 536870909
# (slot bits, the struct code `_slot_pack` writes at that width, p): a prime
# whose slot bounds leave `bits` bits at a moderate n
SLOT_EDGES = [(8, "B", 3), (16, "H", 37), (32, "I", 8191)]
NEXT_SLOT = {"B": "H", "H": "I", "I": "Q"}


def _last_n(bound, bits):
    """Largest n whose slot bound still fits in `bits` bits."""
    n = 1
    while bound(n + 1).bit_length() <= bits:
        n += 1
    return n


def _check_elimination(rows, p):
    """The echelon form and the basis read from it against the list elimination."""
    n = len(rows)
    basis = list_nullspace_basis(rows, p)
    echelon = _frobenius_echelon(rows, p)
    assert _berlekamp_basis(echelon, n, p) == basis
    assert len(echelon) == n - len(basis)


MATRIX_KINDS = ["random", "zero", "identity", "all-max", "low-rank", "identity-plus-low-rank"]


def _matrix(kind, n, p, rng):
    if kind == "zero":
        return [[0] * n for _ in range(n)]
    if kind == "identity":
        return [[int(i == j) for j in range(n)] for i in range(n)]
    if kind == "all-max":
        return [[p - 1] * n for _ in range(n)]
    if kind in ("low-rank", "identity-plus-low-rank"):
        r = rng.randint(0, n - 1)
        left = [[rng.randrange(p) for _ in range(r)] for _ in range(n)]
        right = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
        m = [[sum(left[i][k] * right[k][j] for k in range(r)) % p for j in range(n)]
             for i in range(n)]
        if kind == "identity-plus-low-rank":  # M - I is rank-deficient
            m = [[(c + (i == j)) % p for j, c in enumerate(row)] for i, row in enumerate(m)]
        return m
    return [[rng.randrange(p) for _ in range(n)] for _ in range(n)]


class TestPackedBerlekamp:
    """The packed-integer kernels against the list loops they replaced."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(PACKED_PRIMES),
        st.integers(1, 60),
        st.sampled_from(MATRIX_KINDS),
        st.integers(0, 2**32),
    )
    def test_nullspace_matches_list_elimination(self, p, n, kind, seed):
        rows = _matrix(kind, n, p, random.Random(seed))
        _check_elimination(rows, p)

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(PACKED_PRIMES + [P29]),
        st.integers(1, 60),
        st.sampled_from(MATRIX_KINDS),
        st.integers(0, 2**32),
    )
    def test_echelon_rows_are_reduced_with_increasing_pivots(self, p, n, kind, seed):
        # back-substitution's slot bound needs every slot of a pivot row below p
        rows = _matrix(kind, n, p, random.Random(seed))
        nb = _slot_bytes(n * (p - 1) ** 2 + p)
        pivots = []
        for x in _frobenius_echelon(rows, p):
            assert 0 < x < 1 << 8 * nb * n  # nothing past the n-th slot
            slots = _slot_unpack(x, n, nb)
            pivot = next(i for i, v in enumerate(slots) if v)  # slots before it are 0
            assert slots[pivot] == 1
            assert all(v < p for v in slots)
            pivots.append(pivot)
        assert pivots == sorted(set(pivots))

    def test_large_sizes_match_list_loops(self):
        # hypothesis favours small n; this covers n in [40, 60] for every p
        rng = random.Random(2)
        for i, p in enumerate(PACKED_PRIMES * 3):
            n = rng.randint(40, 60)
            rows = _matrix(MATRIX_KINDS[i % len(MATRIX_KINDS)], n, p, rng)
            _check_elimination(rows, p)
            f = [rng.randrange(p) for _ in range(n)] + [1]
            assert _frobenius_rows(f, p) == list_frobenius_rows(f, p)

    @pytest.mark.parametrize("kind", ["random", "all-max", "identity-plus-low-rank"])
    def test_nullspace_next_to_the_slot_bound(self, kind):
        bound = lambda n: n * (P29 - 1) ** 2 + P29
        n = _last_n(bound, 64)
        rng = random.Random(11)
        for size, nb in ((n, 8), (n + 1, 9)):
            assert _slot_bytes(bound(size)) == nb
            rows = _matrix(kind, size, P29, rng)
            _check_elimination(rows, P29)

    def test_basis_is_in_the_left_kernel(self):
        rng = random.Random(3)
        for p in PACKED_PRIMES:
            rows = _matrix("identity-plus-low-rank", 25, p, rng)
            basis = _berlekamp_basis(_frobenius_echelon(rows, p), 25, p)
            for v in basis:
                image = [sum(v[i] * rows[i][j] for i in range(25)) for j in range(25)]
                assert [(x - y) % p for x, y in zip(image, v)] == [0] * 25

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(PACKED_PRIMES), st.integers(1, 60), st.integers(0, 2**32))
    def test_frobenius_rows_match_list_loop_and_powers(self, p, n, seed):
        rng = random.Random(seed)
        f = [rng.randrange(p) for _ in range(n)] + [1]
        rows = _frobenius_rows(f, p)
        assert rows == list_frobenius_rows(f, p)
        for i in sorted({0, min(1, n - 1), n // 2, n - 1}):
            power = _gf_pow_mod([0, 1], p * i, f, p)
            assert rows[i] == power + [0] * (n - len(power))

    def test_frobenius_rows_next_to_the_slot_bound(self):
        bound = lambda n: (2 * n - 1) * (P29 - 1) ** 2
        n = _last_n(bound, 64)
        rng = random.Random(5)
        for size, nb in ((n, 8), (n + 1, 9)):
            assert _slot_bytes(bound(size)) == nb
            for f in ([P29 - 1] * size + [1], [rng.randrange(P29) for _ in range(size)] + [1]):
                assert _frobenius_rows(f, P29) == list_frobenius_rows(f, P29)

    @pytest.mark.parametrize("bits, code, p", SLOT_EDGES)
    @pytest.mark.parametrize("kind", ["random", "all-max", "identity-plus-low-rank"])
    def test_nullspace_on_both_sides_of_a_slot_width(self, bits, code, p, kind):
        n = _last_n(lambda n: n * (p - 1) ** 2 + p, bits)
        rng = random.Random(n)
        for size, want in ((n, code), (n + 1, NEXT_SLOT[code])):
            assert _STRUCT_CODES[_slot_bytes(size * (p - 1) ** 2 + p)] == want
            rows = _matrix(kind, size, p, rng)
            _check_elimination(rows, p)

    @pytest.mark.parametrize("bits, code, p", SLOT_EDGES)
    def test_frobenius_rows_on_both_sides_of_a_slot_width(self, bits, code, p):
        n = _last_n(lambda n: (2 * n - 1) * (p - 1) ** 2, bits)
        rng = random.Random(n)
        for size, want in ((n, code), (n + 1, NEXT_SLOT[code])):
            assert _STRUCT_CODES[_slot_bytes((2 * size - 1) * (p - 1) ** 2)] == want
            for f in ([p - 1] * size + [1], [rng.randrange(p) for _ in range(size)] + [1]):
                assert _frobenius_rows(f, p) == list_frobenius_rows(f, p)

    @pytest.mark.parametrize("n, p", [(3, 2**31 - 1), (33, P29)])
    def test_nullspace_with_bounds_past_63_bits(self, n, p):
        assert (n * (p - 1) ** 2 + p).bit_length() > 63
        rng = random.Random(n)
        for rows in ([[1] * n for _ in range(n)], _matrix("all-max", n, p, rng),
                     _matrix("random", n, p, rng)):
            _check_elimination(rows, p)

    @pytest.mark.parametrize("n, p", [(3, 2**31 - 1), (17, P29)])
    def test_frobenius_rows_with_bounds_past_63_bits(self, n, p):
        assert ((2 * n - 1) * (p - 1) ** 2).bit_length() > 63
        rng = random.Random(n)
        for f in ([1] + [0] * (n - 1) + [1], [p - 1] * n + [1],
                  [rng.randrange(p) for _ in range(n)] + [1]):
            assert _frobenius_rows(f, p) == list_frobenius_rows(f, p)

    def test_each_kernel_asks_for_its_stated_slot_bound(self, monkeypatch):
        asked = []
        monkeypatch.setattr(factorq, "_slot_bytes", lambda b: asked.append(b) or _slot_bytes(b))
        rng = random.Random(7)
        for p in (3, 8191, P29):
            n = rng.randint(2, 20)
            f = [rng.randrange(p) for _ in range(n)] + [1]
            rows = _frobenius_rows(f, p)
            assert asked == [(2 * n - 1) * (p - 1) ** 2]
            asked.clear()
            echelon = _frobenius_echelon(rows, p)
            assert asked == [n * (p - 1) ** 2 + p]
            asked.clear()
            _berlekamp_basis(echelon, n, p)
            assert asked == [n * (p - 1) ** 2 + p]
            asked.clear()


def _phi_part(c, n):
    """Phi_n(z, c) for z^2 + c as a primitive integer list; it must be squarefree."""
    (part, mult), = dynatomic_poly(MapSpec(2, Fraction(c)), n).squarefree_decomposition()
    assert mult == 1
    return [x.numerator for x in part.coeffs]


def _select_on_phi(c, n):
    selected = _select_prime(_phi_part(c, n))
    return None if selected is None else (selected[0], sorted(len(u) - 1 for u in selected[1]))


PINNED = [
    ("-71/48", 6, (17, [1] * 6 + [24, 24])),
    ("-2", 6, (11, [6] * 5 + [12, 12])),
    ("1/3", 6, None),  # one prime proves Phi_6 irreducible
    ("1/2", 7, (13, [28, 98])),
    ("-1/3", 7, (11, [63, 63])),
]


class TestSelectPrimePinned:
    """Chosen prime and modular factor degrees, recorded before the rows were packed."""

    @pytest.mark.parametrize("c, n, expected", PINNED)
    def test_pinned_cells(self, c, n, expected):
        assert _select_on_phi(c, n) == expected

    @pytest.mark.parametrize("c, n, expected", PINNED)
    def test_one_basis_for_the_chosen_prime_only(self, c, n, expected, monkeypatch):
        # candidates are ranked by r alone; a prime proving irreducibility needs no basis
        factorq._modular.clear()  # else the memo warmed by test_pinned_cells answers
        asked = []
        spy = lambda echelon, n, p: asked.append(p) or _berlekamp_basis(echelon, n, p)
        monkeypatch.setattr(factorq, "_berlekamp_basis", spy)
        assert _select_on_phi(c, n) == expected
        assert asked == ([] if expected is None else [expected[0]])

    @pytest.mark.parametrize("c, n, expected", PINNED)
    def test_one_echelon_per_squarefree_candidate(self, c, n, expected, monkeypatch):
        # the chosen prime's basis reads the echelon its ranking built
        f = _phi_part(c, n)
        factorq._modular.clear()
        asked = []
        spy = lambda rows, p: asked.append(p) or _frobenius_echelon(rows, p)
        monkeypatch.setattr(factorq, "_frobenius_echelon", spy)
        assert _select_on_phi(c, n) == expected
        candidates = [p for p in takewhile(lambda p: p <= asked[-1], primes()) if f[-1] % p]
        assert asked == [p for p in candidates
                         if factorq._gf_is_squarefree(factorq._gf_monic(f, p), p)]

    def test_the_empty_echelon_of_the_identity_is_not_rebuilt(self, monkeypatch):
        # z(z - 1)(z - 2) splits into linear factors mod every odd prime, so
        # M = I there, r = 3 = n, and the chosen prime 3 has the echelon []
        factorq._modular.clear()
        built, echelons = [], []
        rows_spy = lambda f, p: built.append(p) or _frobenius_rows(f, p)
        basis_spy = lambda e, n, p: echelons.append(e) or _berlekamp_basis(e, n, p)
        monkeypatch.setattr(factorq, "_frobenius_rows", rows_spy)
        monkeypatch.setattr(factorq, "_berlekamp_basis", basis_spy)
        assert _select_prime([0, 2, -3, 1]) == (3, [[0, 1], [1, 1], [2, 1]])
        assert built == [3, 5, 7, 11, 13]  # 2 is no candidate: z^2 (z + 1)
        assert echelons == [[]]


KERNELS = ("_gf_is_squarefree", "_frobenius_rows", "_frobenius_echelon", "_berlekamp_basis")


def _spy_kernels(monkeypatch):
    """(name, p) of each modular kernel called from now on, in call order."""
    asked = []
    for name in KERNELS:
        kernel = getattr(factorq, name)
        monkeypatch.setattr(factorq, name,
                            lambda *args, k=kernel, n=name: asked.append((n, args[-1])) or k(*args))
    return asked


@st.composite
def _agreeing_mod_p(draw):
    """f and f + p*g, which agree mod p, and an unrelated polynomial.

    Each is primitive and squarefree with lc > 0, as `_select_prime` needs.
    """
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    n = draw(st.integers(1, 8))
    f = [draw(st.integers(-30, 30)) for _ in range(n)] + [draw(st.integers(1, 30))]
    g = [draw(st.integers(-5, 5)) for _ in range(n)]
    other = [draw(st.integers(-30, 30)) for _ in range(draw(st.integers(1, 8)))] + [1]
    inputs = [f, [a + p * b for a, b in zip(f, g)] + [f[-1]], other]
    for h in inputs:
        assume(any(h[:-1]) and _squarefree_parts(Poly(h)) == [h])
    return inputs


def _discriminant_mod_p(f, p):
    """disc f mod p = (-1)^(n(n-1)/2) Res(f, f') / lc f, with f' of formal degree n - 1."""
    n = len(f) - 1
    deriv = [i * c % p for i, c in enumerate(f)][1:]
    while deriv and not deriv[-1]:
        deriv.pop()
    res = resultant_mod_p(f, deriv, p) * pow(f[-1], n - len(deriv), p)  # (n - 1) - deg f'
    return (-1) ** (n * (n - 1) // 2) * res * pow(f[-1], -1, p) % p


def _check_stickelberger(f):
    """(disc f / p) = (-1)^(n - r) at the first 5 odd primes where f mod p is squarefree."""
    n = len(f) - 1
    checked = 0
    for p in primes():
        if p == 2 or f[-1] % p == 0:
            continue
        disc = _discriminant_mod_p(f, p)
        fm = [c * pow(f[-1], -1, p) % p for c in f]
        assert factorq._gf_is_squarefree(fm, p) == (disc != 0)
        if not disc:
            continue
        r = n - len(_frobenius_echelon(_frobenius_rows(fm, p), p))
        legendre = pow(disc, (p - 1) // 2, p)
        assert legendre == (1 if (n - r) % 2 == 0 else p - 1), (f, p, r)
        checked += 1
        if checked == 5:
            return


class TestModularMemo:
    """`_select_prime` computes its modular results once per (p, image of f mod p)."""

    @pytest.mark.parametrize("c, n, expected", PINNED)
    def test_a_warm_memo_runs_no_kernel(self, c, n, expected, monkeypatch):
        f = _phi_part(c, n)
        factorq._modular.clear()
        cold = _select_prime(f)
        asked = _spy_kernels(monkeypatch)
        assert _select_prime(f) == cold
        assert asked == []
        assert _select_on_phi(c, n) == expected

    @settings(max_examples=60, deadline=None)
    @given(_agreeing_mod_p())
    def test_inputs_agreeing_mod_p_get_their_cold_results(self, inputs):
        # f and f + p*g share their image at p, and at no prime need share more;
        # each result from a memo warmed by the others equals a cold one
        cold = []
        for h in inputs:
            factorq._modular.clear()
            cold.append((_select_prime(h), factor_over_q(Poly(h))))
        factorq._modular.clear()
        for order in (inputs, inputs[::-1]):
            for h, want in zip(order, cold if order is inputs else cold[::-1]):
                assert (_select_prime(h), factor_over_q(Poly(h))) == want
                oracle = sorted(gated_factor_squarefree(h))
                assert sorted(_zz_factor_squarefree(h)) == oracle
                got = sorted(list(fac.as_integer_ratio()[0]) for fac, _ in want[1].factors)
                assert got == oracle

    def test_a_sweep_over_c_selects_as_a_cold_memo_does(self, monkeypatch):
        # along the sweep, a prime that was only ranked before can be chosen
        # later: its rows and echelon form are then built again for the one basis
        parts = [part for c in enumerate_rationals_by_height(5)
                 for part in _squarefree_parts(dynatomic_poly(MapSpec(2, c), 6))]
        cold = []
        for part in parts:
            factorq._modular.clear()
            cold.append(_select_prime(part))
        factorq._modular.clear()
        asked = _spy_kernels(monkeypatch)
        late = 0
        for part, want in zip(parts, cold):
            del asked[:]
            assert _select_prime(part) == want
            assert len(set(asked)) == len(asked)  # no kernel twice at one prime
            p = want and want[0]
            if ("_gf_is_squarefree", p) not in asked and ("_frobenius_rows", p) in asked:
                # the chosen prime's r came from the memo and its split did not
                assert asked[-3:] == [(name, p) for name in KERNELS[1:]]
                late += 1
        assert late == 6

    def test_more_images_than_the_bound_leave_at_most_the_bound(self):
        factorq._modular.clear()
        rng = random.Random(41)
        seen = set()
        while len(seen) <= factorq._MODULAR_BOUND + 50:
            factor_over_q(Poly([rng.randint(-99, 99) for _ in range(8)] + [1]))
            assert len(factorq._modular) <= factorq._MODULAR_BOUND
            seen |= factorq._modular.keys()
        assert len(factorq._modular) == factorq._MODULAR_BOUND


class TestStickelberger:
    """Berlekamp's r against the discriminant: (disc f / p) = (-1)^(n - r) for odd p."""

    @pytest.mark.parametrize("c, n", [(c, n) for c, n, _ in PINNED])
    def test_pinned_cells(self, c, n):
        _check_stickelberger(_phi_part(c, n))

    def test_period_six_candidates_up_to_height_five(self):
        cells = list(enumerate_rationals_by_height(5))
        assert len(cells) == 39
        for c in cells:
            for part in _squarefree_parts(dynatomic_poly(MapSpec(2, c), 6)):
                _check_stickelberger(part)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=12), st.integers(1, 50))
    def test_random_squarefree_polynomials(self, low, lc):
        f = low + [lc]
        assume(any(low) and _squarefree_parts(Poly(f)) == [f])
        _check_stickelberger(f)

    def test_resultant_oracle_by_the_roots(self):
        # Res(b * prod (z - a_i), g) = b^deg g * prod g(a_i)
        rng = random.Random(43)
        for p in (2, 3, 5, 13, 101):
            for _ in range(20):
                roots = [rng.randrange(p) for _ in range(rng.randint(1, 6))]
                b = rng.randrange(1, p)
                f = [b]
                for a in roots:
                    f = _convolve(f, [-a, 1])
                g = [rng.randrange(p) for _ in range(rng.randint(0, 5))] + [rng.randrange(1, p)]
                want = pow(b, len(g) - 1, p)
                for a in roots:
                    want = want * sum(c * a**i for i, c in enumerate(g)) % p
                assert resultant_mod_p(f, g, p) == want


def _trace_lift(f, margin):
    """`_trace_search`'s arguments: f's factors lifted to p^l > 2 * n * R * margin, s, R, p^l."""
    p, modular = _select_prime(f)
    scale, big_g = _monic_scale(f)
    roots = factorq._root_bound(big_g)
    pl = factorq._precision(p, 2 * (len(f) - 1) * roots * margin)
    lifted = factorq._hensel_lift(factorq._hensel_tree(p, f[-1], modular), f, pl)
    return lifted, scale, roots, pl


def _spy_lifts(monkeypatch, f):
    """The modulus p^l of each lift of f itself, not of its splits, from now on."""
    lifts = []
    lift = factorq._hensel_lift

    def spy(node, g, pl):
        if g == f:
            lifts.append(pl)
        return lift(node, g, pl)

    monkeypatch.setattr(factorq, "_hensel_lift", spy)
    return lifts


@st.composite
def _wide_pairs(draw):
    """(g, h) of degree 1 to 3 with leading coefficients up to 2^64 and roots up to about 2^40."""
    def part():
        lead = draw(st.one_of(st.integers(1, 4), st.integers(1, 2**64)))
        return [draw(st.integers(-(2**40), 2**40)) for _ in range(draw(st.integers(1, 3)))] + [lead]

    return part(), part()


# reducible, so the trace search must find a subset; Phi_4(z, 0) and
# Phi_3(z, -2) are small enough that factoring skips the search itself
REDUCIBLE = [(0, 4), (-2, 3), (-2, 5), (0, 6), (-2, 6)]


class TestTracePrecision:
    """The trace gate and the search at trace precision that proves irreducibility."""

    @settings(max_examples=80, deadline=None)
    @given(_wide_pairs())
    def test_scaled_traces_are_bounded_integers(self, pair):
        # s * sigma_g is a rational algebraic integer, so an integer, and R
        # bounds every root s * alpha of G: each side's trace is within deg * R
        g, h = pair
        f = _convolve(g, h)
        scale, big_g = _monic_scale(f)
        roots = factorq._root_bound(big_g)
        for side in (g, h):
            trace = scale * Fraction(-side[-2], side[-1])
            assert trace.denominator == 1
            assert abs(trace) <= (len(side) - 1) * roots
            for alpha in high_precision_roots(Poly(side)):
                assert scale * abs(alpha) <= roots * (1 + mpmath.mpf(10) ** -40)

    @settings(max_examples=60, deadline=None)
    @given(_wide_pairs())
    def test_the_search_finds_a_true_factor_at_the_least_precision(self, pair):
        # with no margin at all, p^l > 2 * n * R still makes the gate exact
        for part in _squarefree_parts(Poly(_convolve(*pair))):
            if _select_prime(part) is not None and len(_zz_factor_squarefree(part)) > 1:
                assert factorq._trace_search(*_trace_lift(part, 1))

    @pytest.mark.parametrize("c, n", REDUCIBLE)
    @pytest.mark.parametrize("margin", [1, factorq._TRACE_MARGIN])
    def test_a_reducible_input_is_never_proven_irreducible(self, c, n, margin):
        f = _phi_part(c, n)
        assert factorq._trace_search(*_trace_lift(f, margin))
        assert len(_zz_factor_squarefree(f)) > 1

    def test_a_false_pass_runs_the_full_lift(self, monkeypatch):
        # Phi_4(z, -3/5) is irreducible and splits into degrees 4 and 8 mod 7;
        # without the margin the wrong side passes at trace precision, so f
        # goes on to the full precision, and the full loop still finds no factor
        f = _phi_part("-3/5", 4)
        trace_pl = {margin: _trace_lift(f, margin)[3] for margin in (1, factorq._TRACE_MARGIN)}
        assert not factorq._trace_search(*_trace_lift(f, factorq._TRACE_MARGIN))
        lifts = _spy_lifts(monkeypatch, f)
        assert _zz_factor_squarefree(f) == [f]
        assert lifts == [trace_pl[factorq._TRACE_MARGIN]]

        monkeypatch.setattr(factorq, "_TRACE_MARGIN", 1)
        assert factorq._trace_search(*_trace_lift(f, 1))
        del lifts[:]
        assert _zz_factor_squarefree(f) == [f]
        first, full = lifts
        assert first == trace_pl[1]
        assert full > 2 * _recombination_bound(f)

    def test_each_subset_is_gated_on_its_side_of_degree_at_most_half(self):
        # Phi_5(z, -1/2) splits into degrees 5 and 25 mod 11; even without the
        # margin the degree-5 side fails the gate, while the degree-25 side,
        # gated on its own looser bound 25 * R, would pass
        f = _phi_part("-1/2", 5)
        lifted, scale, roots, pl = _trace_lift(f, 1)
        assert sorted(len(u) - 1 for u in lifted) == [5, 25]
        small, large = sorted(range(2), key=lambda i: len(lifted[i]))
        assert not factorq._trace_gate(lifted, [small], scale, roots, pl)
        assert factorq._trace_gate(lifted, [large], scale, roots, pl)
        assert not factorq._trace_search(lifted, scale, roots, pl)

    def test_factor_lists_match_both_oracles_on_phi_grids(self):
        cells = [(c, 6) for c in enumerate_rationals_by_height(5)]
        cells += [(c, 7) for c in enumerate_rationals_by_height(2)]
        assert len(cells) == 46
        for c, n in cells:
            for part in _squarefree_parts(dynatomic_poly(MapSpec(2, c), n)):
                got = sorted(_zz_factor_squarefree(part))
                assert got == sorted(full_bound_factor_squarefree(part)), (c, n)
                assert got == sorted(gated_factor_squarefree(part, values_prune=True)), (c, n)

    @pytest.mark.parametrize("c, n, expected", PINNED)
    def test_no_more_trial_divisions_than_the_gated_loop(self, c, n, expected):
        # the trace gate replaced the gate on b * sum F_i[deg F_i - 1] against B
        part = _phi_part(c, n)
        got, tried = _divisions_tried(factorq, _zz_factor_squarefree, part)
        run = lambda f: gated_factor_squarefree(f, values_prune=True)
        want, oracle_tried = _divisions_tried(_oracles, run, part)
        assert got == want
        assert tried <= oracle_tried

    def test_root_bound_is_the_least_power_of_two_form(self):
        # R = 2^(e + 1) for the least e with |G_(n-i)| <= 2^(e * i)
        assert factorq._root_bound([0, 1]) == 2
        assert factorq._root_bound([-4, 0, 1]) == 4  # |G_0| = 4 = 2^(1 * 2)
        assert factorq._root_bound([-5, 0, 1]) == 8  # 5 > 2^2, so e = 2
        assert factorq._root_bound([1, 2**10 + 1, 1]) == 2**12
