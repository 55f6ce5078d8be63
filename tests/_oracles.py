"""Independent test oracles.

These deliberately avoid the code paths they check: root clustering runs at
200+ bits through mpmath and candidate factors are validated by exact
division only, so a reducibility verdict is an exact certificate and an
irreducibility verdict exhausts every root subset.  The primitive-element
sweep gets subfield degrees from minimal polynomials alone, independent of
the span computation in `numberfield.subfield_degree`.  The list Berlekamp
kernels are the elimination and the Frobenius loop that the packed-integer
rows in `factorq` replaced, kept entry by entry so the two can be compared,
and `fraction_divmod` is the long division over Q that `Poly.__divmod__`
replaced with a scaled division in Z[x] and `Poly.exact_div` with one
division by the divisor's primitive part.  `symmetric_functions` expands
e_1..e_N of a cycle for the span computation `subfield_degree`, which
recomputes the orbit field degree D0 that the decision layer gets from the
cycle's stabiliser, and `owner_search_merge` is the merge that collected the
minimal polynomials of every orbit element of each owner record, before
`cycles._merge_records` stopped its walk at the stabiliser.  The list kernels
`schoolbook_convolve` and `lazy_gf_divmod` are the loops that the
Kronecker-substitution product and the packed long division in `polynomials`
replaced above their size cutoffs, run at every size, and
`trial_extract_square` splits off squares by trial division up to sqrt(n),
as `numberfield._extract_square` did before it stopped at the cube root.
`full_bound_factor_squarefree` is the Zassenhaus recombination that lifted
to `mignotte_bound`, s * 2^n * max|a| * |lc f|, and rebuilt subsets of up
to half the modular factors whatever their degree, with only the
trailing-coefficient prune; `factorq` now lifts to a half-degree bound,
rebuilds the side of degree at most deg(rest) / 2 and gates it on its
trace.  `half_period_conjugate` is the quadratic fast path as
`property_a.check_quadratic_cycle` ran it before it compared the
half-period iterate with -p - z directly: it conjugates the start's
representative a + b*z to (a - b*p) - b*z and takes the class of that.
`lift_common_denominator` is the Fraction-input lift with a scale s that
`Poly` division and `QuotientAlgebra.element` ran before both lifted the
stored integer numerators, and `fraction_mul` is the schoolbook product over
Fraction that `Poly.__mul__` replaced with one integer convolution.
`is_stored_form` spells out the stored form of `Poly` and `AlgElement`.
`gated_factor_squarefree` is the recombination as `factorq` ran it before
the trace gate replaced the next-to-leading coefficient gate, with no search
at trace precision; by default also without the prune by the values at 1 and
-1, so every gated candidate is tried by division, and with that prune the
loop exactly as it was.  `expand` multiplies a `Factorization` back out; no
code in the package needs that product.  The package needs none of the
three references that left it as `maps.iterate`, `BiPoly.evaluate_c` and
`cycles.orbit_in_algebra` either: `iterate` runs h = h^d + c from h = z
by `Poly` powers, not through the chain `maps._chain` builds Phi_N from,
`evaluate_c` specializes each coefficient in c as a sum of powers of c
rather than by Horner's rule, and `orbit_record` walks the class of z in
Q[z]/(factor) until it returns, within 100 steps as `orbit_in_algebra`
did, and takes the period it finds; unlike `cycles._build_record` it has
no escape guard and is asked for no period.  `resultant_mod_p` is Euclid's
resultant over F_p on list loops, from which the discriminant of f mod p
checks Berlekamp's factor count by Stickelberger's theorem.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt
from typing import Sequence

import mpmath

from dynatomic.cycles import CycleRecord
from dynatomic.errors import (
    NonExactDivisionError,
    ParentMismatchError,
    PolynomialZeroDivisionError,
)
from dynatomic.factorq import (
    Factorization, _at_one_and_minus_one, _gf_pow_mod, _hensel_lift, _hensel_tree,
    _recombination_bound, _select_prime,
)
from dynatomic.maps import MapSpec
from dynatomic.numberfield import AlgElement, QuotientAlgebra, minimal_polynomial
from dynatomic.polynomials import (
    BiPoly, Poly, _convolve, _gf_divmod, _gf_mul, _trunc_sym, _zz_divmod, _zz_primitive,
)
from dynatomic.rationals import smallest_prime_factor

# 70 decimal digits ~ 230 bits
ORACLE_DPS = 70
_RECONSTRUCT_DENOMINATOR = 10**24


def mpf_to_fraction(x: mpmath.mpf) -> Fraction:
    """Exact rational value of an mpf (binary float of arbitrary precision)."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    value = Fraction(man) * (Fraction(2) ** exp)
    return -value if sign else value


def high_precision_roots(f: Poly) -> list[mpmath.mpc]:
    with mpmath.workdps(ORACLE_DPS):
        coeffs = [
            mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
            for c in reversed(f.coeffs)
        ]
        return list(mpmath.polyroots(coeffs, maxsteps=400, extraprec=240))


def _reconstruct_rational(value: mpmath.mpc) -> Fraction | None:
    with mpmath.workdps(ORACLE_DPS):
        if abs(mpmath.im(value)) > mpmath.mpf(10) ** (-ORACLE_DPS // 2):
            return None
        exact = mpf_to_fraction(mpmath.re(value))
    approx = exact.limit_denominator(_RECONSTRUCT_DENOMINATOR)
    if abs(approx - exact) > Fraction(1, 10 ** (ORACLE_DPS // 2)):
        return None
    return approx


def clustering_factor_candidates(f: Poly) -> list[Poly]:
    """All monic nontrivial factors of f found by root clustering + exact division."""
    n = f.degree()
    monic = f.monic()
    roots = high_precision_roots(monic)
    found = []
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            coeffs = [mpmath.mpc(1)]
            with mpmath.workdps(ORACLE_DPS):
                for i in subset:
                    r = roots[i]
                    coeffs = [mpmath.mpc(0)] + coeffs
                    for j in range(len(coeffs) - 1):
                        coeffs[j] -= r * coeffs[j + 1]
            rational = [_reconstruct_rational(c) for c in coeffs]
            if any(c is None for c in rational):
                continue
            candidate = Poly(rational)  # type: ignore[arg-type]
            if candidate.degree() != size:
                continue
            try:
                monic.exact_div(candidate)
            except NonExactDivisionError:
                continue
            found.append(candidate)
    return found


def brute_force_irreducible(f: Poly) -> bool:
    """Exhaustive subset check; use only at small degree (<= 10 or so)."""
    if f.degree() < 1:
        raise ValueError("needs a nonconstant polynomial")
    if f.degree() == 1:
        return True
    return not clustering_factor_candidates(f)


def brute_force_rational_count(max_height: int) -> int:
    """Count reduced a/b with max(|a|, b) <= H by double loop."""
    total = 0
    for a in range(-max_height, max_height + 1):
        for b in range(1, max_height + 1):
            if gcd(abs(a), b) == 1 and max(abs(a), b) <= max_height:
                total += 1
    return total


def fraction_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """(q, r) with f = q*g + r and deg r < deg g, by long division over Fraction."""
    if g.is_zero():
        raise PolynomialZeroDivisionError("polynomial division by zero")
    if f.degree() < g.degree():
        return Poly.zero(), f
    rem = list(f.coeffs)
    div = g.coeffs
    dd = len(div) - 1
    lc = div[-1]
    quot = [Fraction(0)] * (len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k]
        if c:
            q = c / lc
            quot[k - dd] = q
            for i in range(dd + 1):
                rem[k - dd + i] -= q * div[i]
    return Poly(quot), Poly(rem[:dd])


def lift_common_denominator(coeffs: Sequence[Fraction], s: int = 1) -> tuple[list[int], int]:
    """(N, L): N_j = L*c_j*s^(n-j) for n = len(coeffs) - 1, with the least L > 0 making N integral."""
    parts, pw = [], 1
    for c in reversed(coeffs):
        g = gcd(c.denominator, pw)
        parts.append((c.numerator * (pw // g), c.denominator // g))
        pw *= s
    den = 1
    for _, d in parts:
        den = den * d // gcd(den, d)
    return [num * (den // d) for num, d in reversed(parts)], den


def is_stored_form(x) -> bool:
    """The invariant of `polynomials._Scaled`: int numerators, no trailing zero, den > 0, lowest terms."""
    nums, den = x._nums, x._den
    return (
        type(nums) is tuple
        and all(type(c) is int for c in (*nums, den))
        and den > 0
        and (not nums or nums[-1] != 0)
        and gcd(*nums, den) == 1
    )


def fraction_mul(f: Poly, g: Poly) -> tuple[Fraction, ...]:
    """Coefficients of f*g by the schoolbook product over Fraction, without trailing zeros."""
    out = [Fraction(0)] * max(len(f.coeffs) + len(g.coeffs) - 1, 0)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def half_period_conjugate(record: CycleRecord) -> bool:
    """phi^(N/2)(x) equals the conjugate of x = orbit[0] in Q[z]/(z^2 + p*z + q); False for odd N."""
    n = record.exact_period
    if n % 2:
        return False
    rep, p = record.orbit[0].representative, record.factor.coefficient(1)
    a, b = rep.coefficient(0), rep.coefficient(1)
    return record.orbit[n // 2] == record.orbit[0].parent.element(Poly([a - b * p, -b]))


def naive_gcd(f: Poly, g: Poly) -> Poly:
    """Monic Euclidean gcd straight over Q; independent of the subresultant path."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def subfield_degree_sweep(
    generators: Sequence[AlgElement], max_lambda: int | None = None
) -> int:
    """Subfield degree via the primitive-element sweep s = sum g_i * lam^(i-1).

    The sweep over lam in {0..D^2} with early exit mirrors the design the
    span-based `subfield_degree` replaces; kept as an independent cross-check.
    """
    if not generators:
        raise ValueError("need at least one generator")
    parent = generators[0].parent
    for g in generators[1:]:
        if g.parent is not parent and g.parent != parent:
            raise ParentMismatchError("generators belong to different algebras")
    d = parent.degree
    limit = d * d if max_lambda is None else max_lambda
    best = 1
    streak = 0
    for lam in range(limit + 1):
        s = parent.zero()
        scale = 1
        for g in generators:
            s = s + g * scale
            scale *= lam
        m = minimal_polynomial(s).degree()
        if m > best:
            best, streak = m, 1
        elif m == best:
            streak += 1
        else:
            streak = 0
        if best == d:
            break
        if d % best == 0 and streak >= d:
            break
    return best


def symmetric_functions(orbit: Sequence[AlgElement]) -> list[AlgElement]:
    """e_1..e_k of the orbit, adding one point at a time: e_j += e_(j-1) * z."""
    e = [orbit[0].parent.one()]
    for z in orbit:
        e.append(e[-1] * z)
        for j in range(len(e) - 2, 0, -1):
            e[j] = e[j] + e[j - 1] * z
    return e[1:]


def owner_search_merge(records: list[CycleRecord]) -> list[CycleRecord]:
    """Merge by owner search: each new owner takes the minimal polynomials of
    all its orbit elements, and a later record joins the first owner whose
    set holds its factor."""
    groups: dict[tuple[int, int, int], list[CycleRecord]] = defaultdict(list)
    for rec in records:
        groups[(rec.field_degree, rec.exact_period, rec.multiplicity)].append(rec)
    kept_members: dict[int, list[Poly]] = {}
    for group in groups.values():
        if len(group) == 1:
            kept_members[id(group[0])] = [group[0].factor]
            continue
        owners: list[tuple[CycleRecord, set[Poly], list[Poly]]] = []
        for rec in group:
            owner = next((o for o in owners if rec.factor in o[1]), None)
            if owner is None:
                minpolys = {minimal_polynomial(el) for el in rec.orbit}
                owners.append((rec, minpolys, [rec.factor]))
            else:
                owner[2].append(rec.factor)
        for rec, _, members in owners:
            kept_members[id(rec)] = members
    out = []
    for rec in records:
        if id(rec) in kept_members:
            members = sorted(kept_members[id(rec)], key=lambda p: tuple(reversed(p.coeffs)))
            out.append(replace(rec, merged_factors=tuple(members)))
    return out


def list_frobenius_rows(f: list[int], p: int) -> list[list[int]]:
    """Rows are coefficient vectors of z^(p*i) mod f, i = 0..deg f - 1."""
    n = len(f) - 1
    zp = _gf_pow_mod([0, 1], p, f, p)
    rows = [[1] + [0] * (n - 1)]
    cur = [1]
    for _ in range(1, n):
        cur = _gf_divmod(_gf_mul(cur, zp, p), f, p)[1]
        rows.append(list(cur) + [0] * (n - len(cur)))
    return rows


def list_nullspace_basis(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {v : v * M = v} over F_p for the square matrix M with given rows."""
    n = len(rows)
    # transpose of (M - I); right-nullspace of it equals the left-nullspace of M - I
    a = [[(rows[j][i] - (1 if i == j else 0)) % p for j in range(n)] for i in range(n)]
    pivots: dict[int, int] = {}
    row = 0
    for col in range(n):
        sel = None
        for r in range(row, n):
            if a[r][col] % p:
                sel = r
                break
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [c * inv % p for c in a[row]]
        for r in range(n):
            if r != row and a[r][col]:
                factor = a[r][col]
                a[r] = [(c - factor * d) % p for c, d in zip(a[r], a[row])]
        pivots[col] = row
        row += 1
    basis = []
    for col in range(n):
        if col in pivots:
            continue
        v = [0] * n
        v[col] = 1
        for pcol, prow in pivots.items():
            v[pcol] = (-a[prow][col]) % p
        basis.append(v)
    return basis


def resultant_mod_p(a: Sequence[int], b: Sequence[int], p: int) -> int:
    """Res(a, b) mod p for the degrees of a and b mod p, by Euclid's algorithm.

    Res(a, b) = lc(a)^deg b * prod b(alpha) over the roots alpha of a, so with
    a = q*b + r: Res(a, b) = (-1)^(deg a * deg b) lc(b)^(deg a - deg r) Res(b, r).
    The remainders are plain list loops mod p, independent of `factorq`.
    """
    a, b = _strip([c % p for c in a]), _strip([c % p for c in b])
    if not a or not b:
        return 0
    result = 1
    while len(b) > 1:
        r = list(a)
        inv = pow(b[-1], -1, p)
        while len(r) >= len(b):
            q = r[-1] * inv % p
            shift = len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] = (r[shift + i] - q * c) % p
            _strip(r)
        if not r:
            return 0
        n, m = len(a) - 1, len(b) - 1
        result = result * (-1) ** (n * m) * pow(b[-1], n - (len(r) - 1), p) % p
        a, b = b, r
    return result * pow(b[0], len(a) - 1, p) % p


def schoolbook_convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of integer coefficient lists, len(a) + len(b) - 1 entries; [] if either is empty."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _strip(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def lazy_gf_divmod(f: Sequence[int], g: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with f = q*g + r mod p, deg r < deg g; the remainder is reduced once, at the end."""
    rem = [c % p for c in f]
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    quot = [0] * max(len(rem) - dg, 0)
    for k in range(len(rem) - 1, dg - 1, -1):
        c = rem[k] % p
        if c:
            q = c * inv % p
            base = k - dg
            quot[base] = q
            for i in range(dg):
                rem[base + i] -= q * g[i]
    return _strip(quot), _strip([c % p for c in rem[:dg]])


def trial_extract_square(n: int) -> tuple[int, int]:
    """n = t^2 * s with s squarefree (sign kept on s), one smallest prime factor at a time."""
    if n == 0:
        return 1, 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    t = s = 1
    while n > 1:
        p = smallest_prime_factor(n)
        n //= p
        if n % p == 0:
            n //= p
            t *= p
        else:
            s *= p
    return t, sign * s


def mignotte_bound(f: list[int]) -> int:
    """s * 2^n * max|a| * |lc f| with s = ceil(sqrt(n + 1)), n = deg f."""
    n = len(f) - 1
    a = max(abs(c) for c in f)
    s = isqrt(n + 1)
    if s * s < n + 1:
        s += 1
    return s * (1 << n) * a * abs(f[-1])


def _lift(p: int, f: list[int], facs: list[list[int]], l: int) -> list[list[int]]:
    """`factorq`'s lift of the monic factors facs of f mod p straight to p^l."""
    return _hensel_lift(_hensel_tree(p, f[-1], facs), f, p**l)


def full_bound_factor_squarefree(f: list[int]) -> list[list[int]]:
    """Irreducible factors of a primitive squarefree integer polynomial, lc > 0.

    Lifts to p^l > 2 * `mignotte_bound`(f) and tries every subset S of up to
    half the lifted factors by size, rebuilding b * prod_S F_i whatever its
    degree; S is skipped unless sym(b * prod_S F_i(0) mod p^l) divides
    b * rest(0), b = lc(rest).
    """
    selected = _select_prime(f)
    if selected is None:
        return [list(f)]
    p, modular = selected
    bound = mignotte_bound(f)
    l = 1
    pl = p
    while pl <= 2 * bound:
        pl *= p
        l += 1
    lifted = _lift(p, f, modular, l)

    factors: list[list[int]] = []
    rest = list(f)
    indices = list(range(len(lifted)))
    s = 1
    while 2 * s <= len(indices):
        found = False
        b = rest[-1]
        btc = b * rest[0]
        for subset in combinations(indices, s):
            q = b
            for i in subset:
                q = q * lifted[i][0] % pl
            q = q - pl if q > pl // 2 else q
            if q and btc % q:
                continue
            cand = [b]
            for i in subset:
                cand = _convolve(cand, lifted[i])
            cand = _zz_primitive(_trunc_sym(cand, pl))
            divided = _zz_divmod(rest, cand)
            if divided is not None and not divided[1]:
                factors.append(cand)
                rest = _zz_primitive(divided[0])
                indices = [i for i in indices if i not in subset]
                found = True
                break
        if not found:
            s += 1
    if len(rest) - 1 >= 1:
        factors.append(rest)
    return factors


def gated_factor_squarefree(f: list[int], values_prune: bool = False) -> list[list[int]]:
    """Irreducible factors of a primitive squarefree integer polynomial, lc > 0.

    The recombination of `factorq._zz_factor_squarefree` before its trace
    gate: lifts to p^l > 2 * `_recombination_bound`(f) at once, rebuilds the
    side of each subset of degree at most deg(rest) / 2 and tries by exact
    division every side that passes the next-to-leading coefficient gate
    |sym(b * sum_X F_i[deg F_i - 1] mod p^l)| <= B, b = lc(rest), and the
    trailing-coefficient prune; with values_prune, also only sides whose
    candidate's values at 1 and -1 divide rest's.
    """
    selected = _select_prime(f)
    if selected is None:
        return [list(f)]
    p, modular = selected
    bound = _recombination_bound(f)
    l = 1
    pl = p
    while pl <= 2 * bound:
        pl *= p
        l += 1
    lifted = _lift(p, f, modular, l)
    degrees = [len(u) - 1 for u in lifted]

    factors: list[list[int]] = []
    rest = list(f)
    indices = list(range(len(lifted)))
    s = 1
    while 2 * s <= len(indices):
        found = False
        b = rest[-1]
        btc = b * rest[0]
        values = _at_one_and_minus_one(rest)
        for subset in combinations(indices, s):
            complement = 2 * sum(degrees[i] for i in subset) > len(rest) - 1
            side = [i for i in indices if i not in subset] if complement else subset
            t = b * sum(lifted[i][-2] for i in side) % pl
            if min(t, pl - t) > bound:
                continue
            q = b
            for i in side:
                q = q * lifted[i][0] % pl
            q = q - pl if q > pl // 2 else q
            if q and btc % q:
                continue
            cand = [b]
            for i in side:
                cand = _convolve(cand, lifted[i])
            cand = _zz_primitive(_trunc_sym(cand, pl))
            at_units = _at_one_and_minus_one(cand)
            if values_prune and any(v % u if u else v for v, u in zip(values, at_units)):
                continue
            divided = _zz_divmod(rest, cand)
            if divided is not None and not divided[1]:
                other = _zz_primitive(divided[0])
                factors.append(other if complement else cand)
                rest = cand if complement else other
                indices = [i for i in indices if i not in subset]
                found = True
                break
        if not found:
            s += 1
    if len(rest) - 1 >= 1:
        factors.append(rest)
    return factors


def expand(fac: Factorization) -> Poly:
    """content * prod(factor^multiplicity), the polynomial that was factored."""
    out = Poly.constant(fac.content)
    for g, mult in fac.factors:
        out = out * g**mult
    return out


def iterate(spec: MapSpec, n: int) -> Poly:
    """The n-th iterate of z -> z^d + c as a polynomial of degree d^n; the 0-th is z."""
    if n < 0:
        raise ValueError(f"iterate count must be >= 0, got {n}")
    h = Poly.identity()
    for _ in range(n):
        h = h**spec.d + spec.c
    return h


def evaluate_c(f: BiPoly, c: Fraction) -> Poly:
    """f(z, c) at a rational c: each coefficient sum a_i c^i, a polynomial in z."""
    return Poly([sum(a * c**i for i, a in enumerate(g.coeffs)) for g in f.coeffs])


def orbit_record(factor: Poly, spec: MapSpec) -> CycleRecord:
    """The unmerged record of an irreducible factor whose roots have period at most 100.

    The class of z in Q[z]/(factor) is raised to the d-th power and shifted by
    c until it returns to z; the period asked for is the one found.
    """
    algebra = QuotientAlgebra(factor)
    orbit = [algebra.generator()]
    for _ in range(100):
        x = orbit[-1] ** spec.d + spec.c
        if x == orbit[0]:
            break
        orbit.append(x)
    else:
        raise AssertionError("no return to z within 100 steps")
    return CycleRecord(
        spec=spec,
        n_requested=len(orbit),
        factor=algebra.modulus,
        multiplicity=1,
        field_degree=algebra.degree,
        exact_period=len(orbit),
        orbit=tuple(orbit),
        trace=sum(orbit[1:], orbit[0]),
        merged_factors=(algebra.modulus,),
    )
