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
replaced with a scaled division in Z[x].  `symmetric_functions` expands
e_1..e_N of a cycle for the span computation `subfield_degree`, which
recomputes the orbit field degree D0 that the decision layer gets from the
cycle's stabiliser, and `owner_search_merge` is the merge that collected the
minimal polynomials of every orbit element of each owner record, before
`cycles._merge_records` stopped its walk at the stabiliser.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Sequence

import mpmath

from dynatomic.cycles import CycleRecord
from dynatomic.errors import (
    NonExactDivisionError,
    ParentMismatchError,
    PolynomialZeroDivisionError,
)
from dynatomic.factorq import _gf_pow_mod
from dynatomic.numberfield import AlgElement, minimal_polynomial
from dynatomic.polynomials import Poly, _gf_divmod, _gf_mul

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
    """Basis of {v : v * M = 0} over F_p for the square matrix with given rows."""
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
