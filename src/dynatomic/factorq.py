"""Complete factorization of univariate polynomials over Q.

Pipeline: primitive integer form -> squarefree (Yun) decomposition -> modular
factorization (deterministic Berlekamp) -> quadratic Hensel lifting, first to
trace precision, where a search over subsets of the lifted factors proves
most inputs irreducible, then on to a half-degree Mignotte bound ->
Zassenhaus subset recombination with one trace gate, trailing coefficient
pruning, a prune by the values at 1 and -1 and exact trial division.  Output
is fully exact and deterministic; irreducible factors are primitive integer
polynomials with positive leading coefficient, listed by (degree,
coefficients).  Factors stay integer coefficient lists from the squarefree
parts on, and the content comes from the integer leading coefficients; each
factor becomes a `Poly` once, when the `Factorization` is built.

The prime is the one with fewest factors among the first 5 usable primes.
Each candidate's count r = n - rank(Q - I) (Berlekamp 1967) comes from
one forward elimination of (Q - I)^T, and only the chosen prime gets a
basis, by back-substitution on that same echelon form, so a prime with
r = 1 proves f irreducible before any basis is built.  Whether f mod p is
squarefree, r and the chosen prime's split depend only on p and the monic
image of f mod p, so they are computed once per such pair and kept in
`_modular`, a memo of at most 1024 entries shared by every later
polynomial in the process: along a sweep of Phi_N(z, c) over c the image
at p is Phi_N(z, c mod p), and 85-87 % of the lookups of the N = 6,
h(c) <= 10 scan and of `verify-paper` hit it.

The trace gate bounds the one coefficient of a factor that recombination
needs first, its trace: with (s, G) = `_monic_scale`(f), s times the sum of
the roots of a factor g of f is an integer of absolute value at most
deg(g) * R, R = 2^(e + 1) the Fujiwara bound on the roots of G (Abbott,
Shoup and Zimmermann 2000, van Hoeij 2002 use traces the same way).  On
Phi_N(z, c) the scale s is small where lc f is not, so n * R has 7-15 bits
against a Mignotte bound of 27-688.  So the modular factors are lifted
first to p^l > 2 * n * R * 2^8 only, and if no subset of up to half of them
passes the gate on its side of degree at most n / 2, f is irreducible;
otherwise the same lift goes on to the full precision.

The full lift stops at p^l > 2 * max(B, (n // 2) * R) with B = C(k, k // 2) *
(isqrt(sum a_i^2) + 1), k = deg f // 2.  Every split rest = g * h of a
divisor of f has one side of degree at most deg(rest) / 2 <= k; for that
side, b * prod F_i = lc(h) * g mod p^l with b = lc(rest), and
|lc(h) * g_j| <= C(deg g, j) M(rest) <= B (Mignotte 1974, Landau), so lc f
plays no part.  Zassenhaus therefore rebuilds, for each subset of lifted
factors, whichever of it and its complement has degree at most
deg(rest) / 2, and gates that side on its trace, which holds for a factor
of any divisor of f.

The Hensel step runs on big-integer kernels of `polynomials`: each product
is one Kronecker-substitution multiply (`_convolve`) and each long division
mod p^k runs on one packed int (`_gf_divmod`).  The last step of every
lift skips the Bezout update, which a lift that ends there never reads; a
lift that goes on from trace precision makes it up first, so an input
proven irreducible there never pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt

from .polynomials import (
    Poly, _convolve, _gf_divmod, _gf_gcd, _gf_monic, _gf_mul, _gf_trunc, _monic_scale,
    _slot_bytes, _slot_pack, _slot_unpack, _trunc_sym, _zz_add, _zz_derivative, _zz_divmod,
    _zz_normalize, _zz_primitive, _zz_sub,
)
from .rationals import primes

# -- arithmetic mod p on coefficient lists ----------------------------------


def _gf_gcdex(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Bezout pair (s, t) with s*f + t*g = 1 mod p; requires gcd(f, g) = 1."""
    r0, r1 = _gf_trunc(f, p), _gf_trunc(g, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_trunc(_zz_sub(s0, _convolve(q, s1)), p)
        t0, t1 = t1, _gf_trunc(_zz_sub(t0, _convolve(q, t1)), p)
    if len(r0) != 1:
        raise ValueError("gcdex arguments are not coprime")
    inv = pow(r0[0], -1, p)
    return _gf_trunc([c * inv for c in s0], p), _gf_trunc([c * inv for c in t0], p)


def _gf_pow_mod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    b = _gf_divmod(base, f, p)[1]
    while e:
        if e & 1:
            result = _gf_divmod(_gf_mul(result, b, p), f, p)[1]
        e >>= 1
        if e:
            b = _gf_divmod(_gf_mul(b, b, p), f, p)[1]
    return result


def _gf_is_squarefree(f: list[int], p: int) -> bool:
    deriv = _gf_trunc(_zz_derivative(f), p)
    if not deriv:
        return False
    return len(_gf_gcd(f, deriv, p)) == 1


# -- deterministic Berlekamp on packed rows ---------------------------------
# A row over F_p is one int in the `polynomials` slot format, so a row
# operation is one big-integer multiply-add; slots are sized by each bound.


def _frobenius_rows(f: list[int], p: int) -> list[list[int]]:
    """Rows are coefficient vectors of z^(p*i) mod monic f, i = 0..deg f - 1.

    Row i is the packed product of row i-1 and z^p mod f, of degree at most
    n - 2 + len(z^p mod f), with its slots from that degree down to n cleared
    by adding (slot k mod p) * (p - f) at slot k - n.  Slots never exceed
    (2n - 1)(p - 1)^2.
    """
    n = len(f) - 1
    nb = _slot_bytes((2 * n - 1) * (p - 1) ** 2)
    w = 8 * nb
    mask = (1 << w) - 1
    zp = _gf_pow_mod([0, 1], p, f, p)
    top = n - 2 + len(zp)
    zp = _slot_pack(zp, nb)
    fneg = _slot_pack([(p - c) % p for c in f], nb)
    rows = [[1] + [0] * (n - 1)]
    for _ in range(1, n):
        x = _slot_pack(rows[-1], nb) * zp
        for k in range(top, n - 1, -1):
            if c := (x >> w * k & mask) % p:
                x += c * fneg << w * (k - n)
        rows.append([v % p for v in _slot_unpack(x, n, nb)])
    return rows


def _frobenius_echelon(rows: list[list[int]], p: int) -> list[int]:
    """Echelon form over F_p of (M - I)^T for the square matrix M with given rows.

    Forward elimination on the packed columns of M - I, the rows of its
    transpose.  Returns the pivot rows in column order, each 1 at its pivot,
    0 before it and reduced mod p, so Berlekamp's r is n - len(echelon).  A
    row operation adds (p - c) * pivot row with c < p, and only pivot rows
    are reduced mod p, so slots never exceed n(p - 1)^2 + p.
    """
    n = len(rows)
    nb = _slot_bytes(n * (p - 1) ** 2 + p)
    w = 8 * nb
    mask = (1 << w) - 1
    # column j of M with slot j moved from col[j] to (col[j] - 1) mod p
    rest = [_slot_pack(col, nb) + (((col[j] - 1) % p - col[j]) << w * j)
            for j, col in enumerate(zip(*rows))]
    echelon = []
    for col in range(n):
        shift = w * col
        for i, x in enumerate(rest):
            if lead := (x >> shift & mask) % p:
                break
        else:
            continue
        inv = pow(lead, -1, p)
        prow = _slot_pack([v * inv % p for v in _slot_unpack(rest.pop(i), n, nb)], nb)
        echelon.append(prow)
        for r in range(i, len(rest)):  # the rows before the pivot are 0 mod p at col
            if c := (rest[r] >> shift & mask) % p:
                rest[r] += (p - c) * prow
    return echelon


def _berlekamp_basis(echelon: list[int], n: int, p: int) -> list[list[int]]:
    """Basis of {v : v * M = v} over F_p from the `_frobenius_echelon` of M.

    Back-substitution, last pivot first: each pivot row is reduced mod p in
    its turn and clears its pivot column from the rows above it by adding
    (p - c) * pivot row with c < p, so slots never exceed n(p - 1)^2 + p.
    The vector of a free column j is 1 at j, 0 at the other free columns and
    -row[j] at the pivot column of each reduced row.
    """
    nb = _slot_bytes(n * (p - 1) ** 2 + p)
    w = 8 * nb
    mask = (1 << w) - 1
    rows = list(echelon)
    pivots = [((x & -x).bit_length() - 1) // w for x in rows]  # the lowest nonzero slot
    free = sorted(set(range(n)).difference(pivots))
    basis = [[int(j == col) for j in range(n)] for col in free]
    for k in range(len(rows) - 1, -1, -1):
        vals = [v % p for v in _slot_unpack(rows[k], n, nb)]
        for v, col in zip(basis, free):
            v[pivots[k]] = -vals[col] % p
        prow = _slot_pack(vals, nb)
        shift = w * pivots[k]
        for j in range(k):
            if c := (rows[j] >> shift & mask) % p:
                rows[j] += (p - c) * prow
    return basis


def _berlekamp_split(fm: list[int], p: int, basis: list[list[int]]) -> list[list[int]]:
    """Split monic squarefree fm mod p into r = len(basis) >= 2 monic irreducibles (sorted)."""
    r = len(basis)
    factors = [fm]
    for v in basis:
        vpoly = _zz_normalize(list(v))
        if len(vpoly) <= 1:
            continue  # constants never split anything
        updated: list[list[int]] = []
        for u in factors:
            if len(u) - 1 <= 1:
                updated.append(u)
                continue
            rem = u
            for a in range(p):
                if len(rem) - 1 < 1:
                    break
                g = _gf_gcd(rem, _zz_sub(vpoly, [a]), p)
                if len(g) - 1 >= 1:
                    updated.append(g)
                    rem = _gf_divmod(rem, g, p)[0]
            if len(rem) - 1 >= 1:
                updated.append(rem)
        factors = updated
        if len(factors) == r:
            break
    factors.sort(key=lambda u: (len(u), u))
    return factors


# -- Hensel lifting ----------------------------------------------------------


def _hensel_step(
    mm: int,
    f: list[int],
    g: list[int],
    h: list[int],
    s: list[int],
    t: list[int],
    bezout: bool = True,
) -> tuple[list[int], list[int], list[int] | None, list[int] | None]:
    """One quadratic lift: from f = g*h, s*g + t*h = 1 (mod m) to the same mod mm.

    mm is m^2 or a divisor of it.  Requires h monic, so both divisions are
    exact mod mm and run there, where coefficients cannot grow; returns
    (G, H, S, T) with H monic.  With bezout false the update of (s, t) by
    `_bezout_step`, five products and one division, is skipped and
    S = T = None.
    """
    e = _trunc_sym(_zz_sub(f, _convolve(g, h)), mm)
    q, r = _gf_divmod(_convolve(s, e), h, mm)
    q, r = _trunc_sym(q, mm), _trunc_sym(r, mm)
    big_g = _trunc_sym(_zz_add(g, _zz_add(_convolve(t, e), _convolve(q, g))), mm)
    big_h = _trunc_sym(_zz_add(h, r), mm)
    if not bezout:
        return big_g, big_h, None, None
    return big_g, big_h, *_bezout_step(mm, big_g, big_h, s, t)


def _bezout_step(
    mm: int, g: list[int], h: list[int], s: list[int], t: list[int],
) -> tuple[list[int], list[int]]:
    """(S, T) with S*g + T*h = 1 (mod mm) from s*g + t*h = 1 (mod m), mm | m^2, h monic."""
    b = _trunc_sym(_zz_sub(_zz_add(_convolve(s, g), _convolve(t, h)), [1]), mm)
    c, d = _gf_divmod(_convolve(s, b), h, mm)
    c, d = _trunc_sym(c, mm), _trunc_sym(d, mm)
    big_s = _trunc_sym(_zz_sub(s, d), mm)
    big_t = _trunc_sym(_zz_sub(t, _zz_add(_convolve(t, b), _convolve(c, g))), mm)
    return big_s, big_t


@dataclass
class _Lift:
    """One split f = g * h mod m of a Hensel lift, h monic, and its Bezout pair.

    s * g + t * h = 1 holds mod m, or, once a lift has skipped its last
    update, mod the modulus m_st before that step.  `left` and `right` split
    g and h in turn, None at a single modular factor.
    """

    m: int
    m_st: int
    g: list[int]
    h: list[int]
    s: list[int]
    t: list[int]
    left: _Lift | None
    right: _Lift | None


def _hensel_tree(p: int, lc: int, facs: list[list[int]]) -> _Lift | None:
    """Splits mod p of lc * prod facs, for monic pairwise-coprime facs mod p.

    Each split takes the first half of its factors against the rest, down to
    single factors, with a Bezout pair mod p.
    """
    if len(facs) == 1:
        return None
    k = len(facs) // 2
    g: list[int] = [lc % p]
    for fac in facs[:k]:
        g = _gf_mul(g, fac, p)
    h: list[int] = [1]
    for fac in facs[k:]:
        h = _gf_mul(h, fac, p)
    s, t = _gf_gcdex(g, h, p)
    return _Lift(p, p, _trunc_sym(g, p), _trunc_sym(h, p), _trunc_sym(s, p), _trunc_sym(t, p),
                 _hensel_tree(p, lc, facs[:k]), _hensel_tree(p, 1, facs[k:]))


def _hensel_lift(node: _Lift | None, f: list[int], pl: int) -> list[list[int]]:
    """Lift the splits of f in node from the modulus they hold to pl = p^l.

    Each split takes quadratic steps m -> min(m^2, pl), at least one, so a
    tree fresh from `_hensel_tree` takes ceil(log2 l) steps per split (one at
    l = 1).  The last step skips the Bezout update, which a lift that ends
    there never reads; a tree lifted before goes on from where it stopped,
    after that update (`_bezout_step`).  Returns monic integer polynomials
    F_i with f = lc(f) * prod F_i (mod pl).
    """
    if node is None:
        inv = pow(f[-1] % pl, -1, pl)
        return [_trunc_sym([c * inv for c in f], pl)]
    if node.m_st < node.m:
        node.s, node.t = _bezout_step(node.m, node.g, node.h, node.s, node.t)
        node.m_st = node.m
    while True:
        m = min(node.m * node.m, pl)
        g, h, s, t = _hensel_step(m, f, node.g, node.h, node.s, node.t, bezout=m < pl)
        node.g, node.h, node.m = g, h, m
        if m == pl:
            break
        node.s, node.t, node.m_st = s, t, m
    return _hensel_lift(node.left, node.g, pl) + _hensel_lift(node.right, node.h, pl)


# -- Zassenhaus --------------------------------------------------------------


def _recombination_bound(f: list[int]) -> int:
    """B = C(k, k // 2) * (isqrt(sum a_i^2) + 1) with k = deg f // 2.

    For a split rest = g * h in Z[x] of a divisor of f with deg g <= deg f / 2,
    |lc(h) * g_j| <= C(deg g, j) |lc h| M(g) <= C(deg g, j) M(rest) <= B, by
    Mignotte's inequality, M(h) >= |lc h| and Landau's M(f) <= ||f||_2.
    """
    k = (len(f) - 1) // 2
    return comb(k, k // 2) * (isqrt(sum(c * c for c in f)) + 1)


_Split = tuple[tuple[int, ...], ...]

_MODULAR_BOUND = 1024
_modular: dict[tuple[int, int], tuple[int, _Split | None]] = {}
"""The modular results of `_select_prime`, least recently used first.

Keyed by (p, `_slot_pack` of the monic image fm of f mod p), in slots of
`_slot_bytes(p - 1)`; fm is monic, so the int is fm exactly.  The value is
(r, split): r is Berlekamp's factor count of fm, 0 when fm is not
squarefree, and split is None, or fm's monic irreducible factors as tuples
once fm was a chosen prime's.  Each is a function of the key alone.

The only memo that outlives a call in the package, and the one process-wide
state: at most _MODULAR_BOUND entries, the least recently used dropped first.
An entry holds the n + 1 slots of fm and a split of n + r coefficients in r
tuples, under 0.5 MB at n = DEGREE_GUARD = 5000 with p < 2^30, so the memo
stays under 0.5 GB.  A full `verify-paper` run leaves 372 entries, 0.13 MB.
"""


def _modular_entry(key: tuple[int, int], entry: tuple[int, _Split | None]) -> None:
    """Store (r, split) under key as the most recently used entry, within the bound."""
    _modular.pop(key, None)
    _modular[key] = entry
    if len(_modular) > _MODULAR_BOUND:
        del _modular[next(iter(_modular))]


def _select_prime(f: list[int]) -> tuple[int, list[list[int]]] | None:
    """First 5 usable primes, keep the one with fewest modular factors.

    Each candidate is ranked by Berlekamp's count r = n - len(echelon) of its
    factors, and `best` keeps the echelon form, so the chosen prime's matrix
    is eliminated once and its basis is read by back-substitution alone.
    Returns None as soon as some reduction proves f irreducible over Z (r = 1).

    Whether the monic image fm of f mod p is squarefree, its r and, at the
    chosen prime, its split are read from `_modular` when an earlier
    polynomial in the process had the same (p, fm), and computed by the
    kernels and stored otherwise.  All three depend on (p, fm) alone, so the
    chosen prime and the split are those a cold memo gives.  For c = a/b with
    p not dividing b, fm of Phi_N(z, c) is Phi_N(z, c mod p) over F_p, so a
    sweep over c meets at most p images per prime and period.
    """
    lc = f[-1]
    n = len(f) - 1
    best: tuple[int, int, list[int], tuple[int, int], _Split | None,
                list[int] | None] | None = None
    tried = 0
    for p in primes():
        if lc % p == 0:
            continue
        fm = _gf_monic(_gf_trunc(f, p), p)
        key = (p, _slot_pack(fm, _slot_bytes(p - 1)))
        r, split = _modular.get(key) or (None, None)
        echelon = None
        if r is None:
            r = 0
            if _gf_is_squarefree(fm, p):
                echelon = _frobenius_echelon(_frobenius_rows(fm, p), p)
                r = n - len(echelon)
        _modular_entry(key, (r, split))
        if r == 0:
            continue
        if r == 1:
            return None
        if best is None or r < best[0]:  # primes ascend, so ties keep the smaller p
            best = (r, p, fm, key, split, echelon)
        tried += 1
        if tried == 5:
            break
    r, p, fm, key, split, echelon = best
    if split is None:
        if echelon is None:  # r came from the memo; [] is the echelon of M = I
            echelon = _frobenius_echelon(_frobenius_rows(fm, p), p)
        split = tuple(map(tuple, _berlekamp_split(fm, p, _berlekamp_basis(echelon, n, p))))
        _modular_entry(key, (r, split))
    return p, [list(u) for u in split]


def _at_one_and_minus_one(g: list[int]) -> tuple[int, int]:
    """(g(1), g(-1))."""
    return sum(g), sum(g[::2]) - sum(g[1::2])


def _root_bound(big_g: list[int]) -> int:
    """R = 2^(e + 1) for the least e >= 0 with |G_(n-i)| <= 2^(e * i), i = 1..n.

    Every root u of the monic G has |u| <= 2 * max_i |G_(n-i)|^(1/i) <= R
    (Fujiwara 1916).
    """
    n = len(big_g) - 1
    e = 0
    for i in range(1, n + 1):
        if a := abs(big_g[n - i]):  # a <= 2^(e * i) iff e * i >= (a - 1).bit_length()
            e = max(e, -(-(a - 1).bit_length() // i))
    return 2 << e


def _precision(p: int, bound: int) -> int:
    """The least power p^l > bound, l >= 1."""
    pl = p
    while pl <= bound:
        pl *= p
    return pl


_TRACE_MARGIN = 2**8
"""How far the modulus of the trace-precision search exceeds 2 * n * R.

The residue of a subset that is no factor is about uniform mod p^l, so it
passes the trace gate with probability about 2 * deg(S) * R / p^l.  Each such
pass costs the full lift; the margin keeps them rare.
"""


def _trace_gate(lifted: list[list[int]], side: list[int] | tuple[int, ...], scale: int,
                roots: int, pl: int) -> bool:
    """|sym(s * sum_X F_i[deg F_i - 1] mod p^l)| <= deg(X) * R for the lifted factors X in side.

    The sign of the residue is dropped: the test is |s * sigma| <= deg(X) * R.
    """
    t = scale * sum(lifted[i][-2] for i in side) % pl
    return min(t, pl - t) <= sum(len(lifted[i]) - 1 for i in side) * roots


def _trace_search(lifted: list[list[int]], scale: int, roots: int, pl: int) -> bool:
    """Whether some subset of up to half the lifted factors passes `_trace_gate`.

    As in recombination, each subset is gated on whichever of it and its
    complement has degree at most n / 2, the side with the tighter bound.
    """
    degrees = [len(u) - 1 for u in lifted]
    indices = range(len(lifted))
    for size in range(1, len(lifted) // 2 + 1):
        for subset in combinations(indices, size):
            if 2 * sum(degrees[i] for i in subset) > sum(degrees):
                subset = tuple(i for i in indices if i not in subset)
            if _trace_gate(lifted, subset, scale, roots, pl):
                return True
    return False


def _zz_factor_squarefree(f: list[int]) -> list[list[int]]:
    """Irreducible factors of a primitive squarefree integer polynomial, lc > 0.

    The trace gate.  Let (s, G) = `_monic_scale`(f): G is monic in Z[u] and
    its roots are s * alpha for the roots alpha of f, all bounded by
    R = `_root_bound`(G).  The trace sigma_g, the sum of the roots of a factor
    g of f over Q, is rational, and s * sigma_g is a sum of roots of G, so an
    algebraic integer: s * sigma_g is an integer with |s * sigma_g| <=
    deg(g) * R.  s divides a power of lc f and p does not divide lc f, so p
    does not divide s, the monic g is integral at p, and it is prod_X F_i
    mod p^l for the set X of its lifted monic factors, whose coefficients of
    degree deg F_i - 1 sum to -sigma_g mod p^l.  When p^l > 2 * deg(X) * R,
    the symmetric residue of s times that sum is therefore -s * sigma_g
    itself, and an X that fails |sym(...)| <= deg(X) * R (`_trace_gate`) is
    no factor.  This holds for every factor of a divisor of f, whose roots
    are roots of f, so it is the one exclusion test before the constant
    term.  The scale s, not lc f, keeps R small: a periodic point alpha of
    z^d + a/b has v_q(alpha) = -v_q(b) / d at each prime q | b, so on
    Phi_N(z, c) (N = 6, h(c) <= 10; N = 7, h <= 3; N = 8, 9, h <= 2) s has
    at most 4 bits where lc f has up to 253, and n * R takes 7-15 bits
    against up to 266 with lc f in place of s.

    The trace-precision search.  The factors of f mod p are first lifted only
    to p^l > 2 * n * R * _TRACE_MARGIN, and every subset of up to half of them
    is gated, on whichever of it and its complement has degree at most n / 2
    (`_trace_search`).  If none passes, f is irreducible: one side of any
    split f = g * h holds at most half the lifted factors, and both it and
    its complement are factors, so it would pass.  A pass is no verdict: it
    sends f on to the full precision below, and the same tree of splits is
    lifted on from the trace precision.  The search is skipped when its
    precision is not below the full one, as for small f.

    At full precision the factors F_i are lifted to p^l > 2 * max(B,
    (n // 2) * R), B the `_recombination_bound`, which also makes the trace
    gate exact for any side of degree at most n / 2.  With rest = lc(rest) *
    prod F_i over the indices left and b = lc(rest), a true factor g of rest
    with cofactor h and lifted factors X satisfies b * prod_X F_i = lc(h) * g
    mod p^l, whose coefficients are at most B when deg g <= deg(rest) / 2.
    So subsets S of up to half the indices are enumerated by size, and each
    tests the side X of degree at most deg(rest) / 2: S itself, or its
    complement when deg S > deg(rest) / 2.  X is skipped when it fails the
    trace gate, or when q = sym(b * prod_X F_i(0) mod p^l) does not divide
    b * rest(0), since q = lc(h) * g(0) and b * rest(0) = q * lc(g) * h(0).
    X's candidate c, the primitive part of sym(b * prod_X F_i mod p^l), is
    skipped too unless c(a) divides rest(a) for a = 1 and a = -1 (0 divides
    only 0), as a divisor of rest in Z[x] must.  Otherwise c is tried by
    exact division.  When it divides, the side of S goes to the factors:
    every smaller subset failed, so it is irreducible.  The other side
    becomes rest and the indices drop S.
    """
    selected = _select_prime(f)
    if selected is None:
        return [list(f)]
    p, modular = selected
    n = len(f) - 1
    scale, big_g = _monic_scale(f)
    roots = _root_bound(big_g)
    pl = _precision(p, 2 * max(_recombination_bound(f), n // 2 * roots))
    trace_pl = _precision(p, 2 * n * roots * _TRACE_MARGIN)
    tree = _hensel_tree(p, f[-1], modular)
    if trace_pl < pl:
        lifted = _hensel_lift(tree, f, trace_pl)
        if not _trace_search(lifted, scale, roots, trace_pl):
            return [list(f)]
    lifted = _hensel_lift(tree, f, pl)
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
            if not _trace_gate(lifted, side, scale, roots, pl):
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
            if any(v % u if u else v for v, u in zip(values, _at_one_and_minus_one(cand))):
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


# -- public API --------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """content * prod(factor^multiplicity) reconstructs the input exactly.

    Factors are irreducible primitive integer polynomials with positive
    leading coefficient, in canonical (degree, descending-coefficient) order.
    """

    content: Fraction
    factors: tuple[tuple[Poly, int], ...]

    def is_irreducible(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1


def factor_over_q(f: Poly) -> Factorization:
    """Factor a nonconstant rational polynomial into irreducibles over Q."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.degree() < 1:
        raise ValueError("cannot factor a constant polynomial")
    nums, den = f.as_integer_ratio()
    lc = 1  # prod lc(part)^mult, so that nums[-1] / (den * lc) is the content
    collected: list[tuple[list[int], int]] = []
    for part, mult in f.squarefree_decomposition():
        ints = list(part.as_integer_ratio()[0])  # parts are primitive integer polynomials
        lc *= ints[-1] ** mult
        collected += [(fac, mult) for fac in _zz_factor_squarefree(ints)]
    collected.sort(key=lambda item: (len(item[0]), item[0][::-1]))
    return Factorization(
        content=Fraction(nums[-1], den * lc),
        factors=tuple((Poly(fac), mult) for fac, mult in collected),
    )
