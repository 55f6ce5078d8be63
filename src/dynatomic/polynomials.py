"""Dense exact polynomial arithmetic.

`Poly` is a univariate polynomial over Q stored, like `numberfield.AlgElement`,
as integer numerators by power over one denominator (`_Scaled`).  A polynomial
in z over Q[c] is the tuple of its coefficients, `Poly`s in c, z^0 first; it is
built in Q[z] by Kronecker substitution (`maps.dynatomic_poly_generic`) and only
printed here (`format_bipoly`).

Multiplication convolves the numerators as machine-free Python ints, by one
Kronecker-substitution product, or term by term against the packed long
operand when a short operand with narrow entries meets a long one with wide
entries (at most 64 terms against 8 times as many, entries 8 times and 256
bits wider: `_convolve`).  `divmod` over Q rescales z so that the divisor
becomes monic in Z[x] and runs the Z[x] long division.  `exact_div` needs no
rescaling: by Gauss's lemma a primitive divisor that divides exactly over Q
divides exactly in Z[x], so it divides the numerators by the divisor's
primitive part once.  Below the classes sits the one list kernel for Z[x]
and F_p[x]: gcds in Z[x] are built from F_p images by the Chinese remainder
theorem and proved by exact division, and Yun's squarefree split runs on
primitive integer forms.
Everything is exact; nothing here ever rounds.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import gcd as int_gcd, lcm
from typing import Iterable, Sequence

from .errors import DegreeGuardError, NonExactDivisionError, PolynomialZeroDivisionError
from .rationals import primes

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEGREE_GUARD = 5000


def _lift_common_denominator(coeffs: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """(N, L): N_j = L*c_j with the least L > 0 making N integral, L = lcm of the denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _scaled_lift(nums: Sequence[int], den: int, s: int) -> tuple[list[int], int]:
    """(F, L): F = L*s^n*f(u/s) in Z[u] for f = sum nums_j z^j / den of degree n, least L > 0.

    F_j = L*s^(n-j)*nums_j/den lifts f to u = s*z: the dividend of `Poly` division
    and the entry of `numberfield.QuotientAlgebra.element`.
    """
    big = _unscale(nums[::-1], s)[::-1]
    g = _zz_content([den, *big])
    return [c // g for c in big], den // g


def _unscale(nums: Sequence[int], s: int) -> list[int]:
    """[nums_i * s^i]: a vector in the basis u^i, u = s*z, rewritten in the basis z^i."""
    out, pw = [], 1
    for c in nums:
        out.append(c * pw)
        pw *= s
    return out


def _monic_scale(nums: Sequence[int]) -> tuple[int, list[int]]:
    """(s, G) for the monic h = sum nums_i z^i / nums[-1] of degree D in lowest terms.

    G_i = s^(D-i)*h_i is integral; s is greedy, no factoring.  G is monic in Z[u]
    with the root u = s*z for each root z of h: the one scaled monic form of
    `Poly` division and of `numberfield.QuotientAlgebra`.
    """
    den, s, top = nums[-1], 1, len(nums) - 1
    for i in range(top - 1, -1, -1):
        d = den // int_gcd(den, nums[i])
        s *= d // int_gcd(d, s ** (top - i))
    return s, _scaled_lift(nums, den, s)[0]


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of integer coefficient lists, len(a) + len(b) - 1 entries; [] when either is empty.

    Operands with fewer than 8 coefficients go through the schoolbook loop.
    Otherwise the gcd g of the nonzero exponents of both operands is divided
    out first (a[::g] times b[::g], scattered back), and the rest is one
    Kronecker-substitution product over the slots of `_slot_pack`.  Every
    product coefficient c has |c| < 2^(w-1) for w = bitlen(max|a|) +
    bitlen(max|b|) + bitlen(min(len a, len b)) + 1, so with slots of
    `_slot_bytes(2^w - 1)` bytes and the bias 2^(8*nb - 1) added to each, c
    comes back from its own slot.

    A lopsided pair skips packing its short operand: when the short one has
    at most 64 terms, the long one at least 8 times as many, and the long
    one's entries are at least 8 times as wide and 256 bits, the packed long
    operand Y is multiplied by each short term, sum short_i * Y * 2^(8*nb*i).
    Each step multiplies Y by one narrow entry, where CPython runs the one
    Kronecker product of such a pair slowly.  Measured on a 2-core VM
    (Python 3.11.7, least of 3-7 runs): the product identity's 34 x 697 terms
    at 41 against 895 bits (Phi_1 Phi_2 Phi_3 times Phi_6, d = 3) took 3.1 ms
    against 7.6 by Kronecker substitution and 5.6 by the schoolbook loop.  On
    a grid of 8-128 short terms, length ratios 2-32 and 8-4096 bits, the loop
    took 0.25-0.82 of the Kronecker time at all 138 shapes inside the bounds;
    outside them it lost by up to 50 % at 128 terms, 20 % at 64 terms of 8
    against 64 bits and 8 % at 64 x 96 terms of 128 against 1024 bits.
    """
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    if min(len(a), len(b)) < 8:
        out = [0] * n
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return out
    g = _exponent_gcd(b, _exponent_gcd(a, 0)) or n  # 0: no nonzero term above degree 0
    if g > 1:
        part = _convolve(a[::g], b[::g])
        out = [0] * n
        out[: g * (len(part) - 1) + 1 : g] = part
        return out
    short, long = (a, b) if len(a) <= len(b) else (b, a)
    s_bits, l_bits = max(map(abs, short)).bit_length(), max(map(abs, long)).bit_length()
    nb = _slot_bytes((1 << s_bits + l_bits + len(short).bit_length() + 1) - 1)  # 2^w - 1
    half = 1 << (8 * nb - 1)
    y = _slot_pack([c + half for c in long], nb) - _ks_bias(len(long), nb)
    if len(short) <= 64 and len(long) >= 8 * len(short) and l_bits >= max(8 * s_bits, 256):
        w, x = 8 * nb, 0
        for c in reversed(short):  # Horner in 2^w: x = sum short_i * y * 2^(w*i)
            x = (x << w) + c * y
    elif short is long:
        x = y * y
    else:
        x = y * (_slot_pack([c + half for c in short], nb) - _ks_bias(len(short), nb))
    return [c - half for c in _slot_unpack(x + _ks_bias(n, nb), n, nb)]


def _exponent_gcd(a: Sequence[int], g: int) -> int:
    """gcd of g and the exponents of the nonzero terms of a."""
    for i in range(1, len(a)):
        if a[i]:
            g = int_gcd(g, i)
            if g == 1:
                break
    return g


# -- packed slots: the one format of every big-integer kernel, here and in
# `factorq`.  Entry i of a list sits in slot i of one int, nb bytes per slot;
# each kernel states the largest value a slot reaches, `_slot_bytes` sizes it.

_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _slot_bytes(bound: int) -> int:
    """Fewest bytes holding every value in [0, bound]; 1, 2, 4 or 8 when 8 or fewer do."""
    nb = (bound.bit_length() + 7) // 8 or 1
    return 1 << (nb - 1).bit_length() if nb <= 8 else nb


def _slot_pack(vals: Sequence[int], nb: int) -> int:
    """sum vals_i * 2^(8*nb*i) for 0 <= vals_i < 2^(8*nb)."""
    if code := _STRUCT_CODES.get(nb):
        return int.from_bytes(struct.pack(f"<{len(vals)}{code}", *vals), "little")
    return int.from_bytes(b"".join([v.to_bytes(nb, "little") for v in vals]), "little")


def _slot_unpack(x: int, n: int, nb: int) -> Sequence[int]:
    """The n lowest slots of nb bytes of x >= 0."""
    z = (x & ((1 << 8 * nb * n) - 1)).to_bytes(nb * n, "little")
    if code := _STRUCT_CODES.get(nb):
        return struct.unpack(f"<{n}{code}", z)
    from_bytes = int.from_bytes
    return [from_bytes(z[i : i + nb], "little") for i in range(0, nb * n, nb)]


def _ks_bias(n: int, nb: int) -> int:
    """2^(8*nb - 1) in each of n slots of nb bytes."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")


def _power(base, n: int):
    """base**n for n >= 1, left-to-right square-and-multiply from base.

    bitlen(n) - 1 squarings and popcount(n) - 1 products by base.
    """
    result = base
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


class _Dense:
    """Operator plumbing of `Poly`, `numberfield.AlgElement` and `QuadraticElement`.

    Instances are immutable.  A subclass supplies `__add__`, `__neg__`,
    `__mul__` and a `_coerce` that turns an operand into an element of its
    ring or returns NotImplemented; subtraction, the reflected operators and
    powers follow from those.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power of {type(self).__name__}")
        return _power(self, n) if n else self._coerce(1)


class _Scaled(_Dense):
    """Ring code of `Poly` and `numberfield.AlgElement`: integer numerators over one denominator.

    The element is sum _nums[i] * x^i / _den in lowest terms: `_nums` has no
    trailing zero, `_den` > 0, and gcd(_nums, _den) = 1, so `==` compares the
    stored form.  A subclass supplies `_coerce` and `_make(nums, den)`, which
    brings any integer vector over a nonzero denominator to that form.
    """

    __slots__ = ("_nums", "_den")

    def _store(self, nums: tuple[int, ...], den: int):
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_den", den)
        return self

    def _like(self, nums: tuple[int, ...], den: int):
        """nums/den in the ring of self, stored as given: it must already be in lowest terms."""
        out = object.__new__(type(self))
        for name in type(self).__slots__:  # what names the ring, e.g. AlgElement.parent
            object.__setattr__(out, name, getattr(self, name))
        return out._store(nums, den)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._nums == other._nums and self._den == other._den

    def __hash__(self) -> int:
        # a constant equals the number it holds, so it must hash like it too
        if len(self._nums) <= 1:
            return hash(Fraction(self._nums[0] if self._nums else 0, self._den))
        return hash((self._nums, self._den))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, den = self._nums, other._nums, self._den
        if den != other._den:
            g = int_gcd(den, other._den)
            a, b = [c * (other._den // g) for c in a], [c * (den // g) for c in b]
            den = den // g * other._den
        return self._make(_zz_add(a, b), den)

    def __neg__(self):
        return self._like(tuple(-c for c in self._nums), self._den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._make(_convolve(self._nums, other._nums), self._den * other._den)


class Poly(_Scaled):
    """Polynomial over Q in one variable (conventionally z); `coeffs` reads it as `Fraction`s."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        nums, den = _lift_common_denominator(list(coeffs))
        self._store(tuple(_zz_normalize(nums)), den)

    def __reduce__(self):
        return (Poly._make, (list(self._nums), self._den))

    @staticmethod
    def _coerce(value) -> Poly:
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly.constant(value)
        return NotImplemented

    @staticmethod
    def _make(nums: list[int], den: int) -> Poly:
        """sum nums_i z^i / den brought to lowest terms; consumes nums."""
        _zz_normalize(nums)
        if den != 1:
            *nums, den = _zz_primitive(nums + [den])
        return object.__new__(Poly)._store(tuple(nums), den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> Poly:
        return cls(())

    @classmethod
    def one(cls) -> Poly:
        return cls((1,))

    @classmethod
    def identity(cls) -> Poly:
        """The polynomial z."""
        return cls((0, 1))

    @classmethod
    def constant(cls, q: Fraction | int) -> Poly:
        return cls((q,))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._nums)

    def as_integer_ratio(self) -> tuple[tuple[int, ...], int]:
        """(numerators by power, denominator) in lowest terms, as `Fraction.as_integer_ratio`."""
        return self._nums, self._den

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._nums) - 1

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def is_constant(self) -> bool:
        return len(self._nums) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coefficient(0)

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self._nums):
            return Fraction(self._nums[power], self._den)
        return _ZERO

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __call__(self, x):
        """Horner evaluation; works for Fraction, int, and any ring element.

        From degree 1 up it starts at lc*x, or at x itself when lc = 1.
        """
        cs = self.coeffs
        if len(cs) <= 1:
            c = cs[0] if cs else _ZERO
            return c if isinstance(x, (int, Fraction)) else x._coerce(c)
        acc = x if cs[-1] == 1 else cs[-1] * x
        for c in reversed(cs[1:-1]):
            acc = (acc + c) * x
        return acc + cs[0]

    def monic(self) -> Poly:
        if not self._nums:
            raise PolynomialZeroDivisionError("no monic form of the zero polynomial")
        if self._nums[-1] == self._den:
            return self
        return Poly._make(list(self._nums), self._nums[-1])

    # -- division ----------------------------------------------------------

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Long division over Q run in Z[u], z = u/s: F = L*s^n*f(u/s) by G = s^D*h(u/s).

        h = other/lc is monic of degree D, so G is monic in Z[u], and F = Q*G + R gives
        q_i = Q_i*s^i/(L*lc*s^(deg q)) and r_i = R_i*s^i/(L*s^n) for n = deg f.
        """
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise PolynomialZeroDivisionError("polynomial division by zero")
        if self.degree() < other.degree():
            return Poly.zero(), self
        s, big_g = _monic_scale(other.monic()._nums)
        big_f, big_l = _scaled_lift(self._nums, self._den, s)
        quot, rem = _zz_divmod(big_f, big_g)
        qden = other._nums[-1] * big_l * s ** (len(quot) - 1)
        q = Poly._make([c * other._den for c in _unscale(quot, s)], qden)
        return q, Poly._make(_unscale(rem, s), big_l * s ** (len(big_f) - 1))

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def exact_div(self, other: Poly) -> Poly:
        """Quotient when the division is exact; raises NonExactDivisionError otherwise.

        One division in Z[z], with no rescaling: write other = c_G*G/den(other)
        with G primitive and lc G > 0.  By Gauss's lemma G divides the
        numerators F of self in Q[z] exactly when F = Q*G with Q in Z[z], and
        `_zz_divmod(F, G)` finds that Q or fails (a fractional quotient
        coefficient or a nonzero remainder).  The quotient is then
        Q*den(other)/(den(self)*c_G).  Only a failure runs `divmod`, to name
        the remainder's degree.
        """
        g = Poly._coerce(other)
        if g is NotImplemented:
            raise TypeError(f"cannot divide a Poly by {type(other).__name__}")
        if g.is_zero():
            raise PolynomialZeroDivisionError("polynomial division by zero")
        big_g = _zz_primitive(list(g._nums))
        qr = _zz_divmod(self._nums, big_g)
        if qr is None or qr[1]:
            r = divmod(self, g)[1]
            raise NonExactDivisionError(
                f"remainder of degree {r.degree()} in supposedly exact division"
            )
        c_g = g._nums[-1] // big_g[-1]  # the signed content
        return Poly._make([c * g._den for c in qr[0]], self._den * c_g)

    # -- squarefree --------------------------------------------------------

    def squarefree_decomposition(self) -> list[tuple[Poly, int]]:
        """Yun decomposition: pairwise-coprime squarefree parts with multiplicities.

        Runs on the primitive integer form, where every division is exact in
        Z[x] by Gauss's lemma.  The product of part^multiplicity equals self
        up to a nonzero constant.  Parts are primitive integer polynomials
        with positive leading coefficient, listed by ascending multiplicity.
        """
        if self.is_zero():
            raise ValueError("zero polynomial has no squarefree decomposition")
        if self.degree() < 1:
            return []
        out: list[tuple[Poly, int]] = []
        f = _zz_primitive(list(self._nums))
        df = _zz_derivative(f)
        a = _zz_gcd(f, df)
        b = _zz_divmod(f, a)[0]
        c = _zz_divmod(df, a)[0]
        d = _zz_sub(c, _zz_derivative(b))
        i = 1
        while len(b) > 1:
            p = _zz_gcd(b, d)
            if len(p) > 1:
                out.append((Poly(p), i))
            b = _zz_divmod(b, p)[0]
            c = _zz_divmod(d, p)[0]
            d = _zz_sub(c, _zz_derivative(b))
            i += 1
        return out


# -- coefficient-list kernel: Z[x] and F_p[x] -----------------------------


def _zz_normalize(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _zz_content(f: Sequence[int]) -> int:
    g = 0
    for c in f:
        g = int_gcd(g, c)
        if g == 1:
            break
    return g


def _zz_primitive(f: list[int]) -> list[int]:
    g = _zz_content(f)
    if g == 0:
        return []
    if f[-1] < 0:
        g = -g
    return [c // g for c in f]


def _zz_add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    return _zz_normalize(out)


def _zz_sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _zz_normalize(out)


def _zz_derivative(f: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def _zz_divmod(f: Sequence[int], g: Sequence[int]) -> tuple[list[int], list[int]] | None:
    """Long division in Z[x]: (q, r) with f = q*g + r and deg r < deg g.

    None as soon as a quotient coefficient is not an integer, which happens
    exactly when the quotient over Q leaves Z[x].  f may carry trailing
    zeros; g may not.  Each quotient term touches only the nonzero terms of g
    (the image of a Kronecker substitution has long gaps), listed only when
    the quotient is nonempty: `QuotientAlgebra` reduces after every addition,
    where it is empty.
    """
    rem = list(f)
    dg = len(g) - 1
    lcg = g[-1]
    quot = [0] * max(len(rem) - dg, 0)
    terms = [(i, gi) for i, gi in enumerate(g[:-1]) if gi] if quot else []
    for k in range(len(quot) - 1, -1, -1):
        c = rem.pop()  # the term of degree k + dg, cancelled by q*x^k*g
        if c:
            q, m = divmod(c, lcg)
            if m:
                return None
            quot[k] = q
            for i, gi in terms:
                rem[k + i] -= q * gi
    return _zz_normalize(quot), _zz_normalize(rem)


def _zz_gcd(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Primitive gcd in Z[x] with positive leading coefficient, from F_p images.

    Let h = gcd(f, g) and b = gcd(lc f, lc g).  For every prime p not
    dividing b, deg gcd(f mod p, g mod p) >= deg h, with equality for all
    but finitely many p; on those, b * (monic gcd mod p) is the image of
    (b / lc h) * h.  So a degree-0 image proves h = 1.  Images of the least
    degree seen are joined by CRT until the symmetric residue stops
    changing.  Its primitive part is the answer once it divides f and g
    exactly: it then divides h and has at least h's degree.  [] when both
    operands are zero.
    """
    f = _zz_primitive(_zz_normalize(list(f)))
    g = _zz_primitive(_zz_normalize(list(g)))
    if not f:
        return g
    if not g:
        return f
    b = int_gcd(f[-1], g[-1])
    least = min(len(f), len(g)) + 1  # above every image, so the first one starts the CRT
    for p in primes():
        if b % p == 0:
            continue
        v = _gf_gcd(f, g, p)
        if len(v) == 1:
            return [1]
        if len(v) > least:
            continue  # unlucky prime
        if len(v) < least:
            least, h, m, last = len(v), [0] * len(v), 1, None
        inv = pow(m, -1, p)
        h = [hc + m * ((b * vc - hc) * inv % p) for hc, vc in zip(h, v)]
        m *= p
        sym = _trunc_sym(h, m)
        if sym == last:
            cand = _zz_primitive(sym)
            qf, qg = _zz_divmod(f, cand), _zz_divmod(g, cand)
            if qf and qg and not qf[1] and not qg[1]:
                return cand
        last = sym


def _trunc_sym(f: Sequence[int], m: int) -> list[int]:
    """Reduce coefficients into the symmetric range (-m/2, m/2]."""
    half = m // 2
    out = []
    for c in f:
        r = c % m
        if r > half:
            r -= m
        out.append(r)
    return _zz_normalize(out)


def _gf_trunc(f: Sequence[int], p: int) -> list[int]:
    return _zz_normalize([c % p for c in f])


def _gf_mul(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    return _gf_trunc(_convolve(f, g), p)


def _gf_divmod(f: Sequence[int], g: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with f = q*g + r mod p, deg r < deg g; p prime, or any modulus if g is monic.

    A quotient of k < 8 coefficients comes from a lazy loop that reduces the
    remainder once, at the end (|entries| stay below k*p^2).  Longer ones run
    on one int holding the deg g + 1 coefficients of the running remainder
    that the next quotient term touches, in the slots of `_slot_pack`: that
    term adds q*(-g_i mod p) to slot i and clears the top slot mod p, which
    then drops out as the next coefficient of f comes in at the bottom.  A
    slot holds a residue plus at most k such terms, so it stays below the
    bound k(p-1)^2 + p and never carries into the next.
    """
    if not g:
        raise ZeroDivisionError("gf division by zero")
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    k = max(len(f) - dg, 0)
    quot = [0] * k
    if k < 8:
        rem = [c % p for c in f]
        for i in range(k - 1, -1, -1):
            c = rem[i + dg] % p
            if c:
                q = c * inv % p
                quot[i] = q
                for j in range(dg):
                    rem[i + j] -= q * g[j]
        return _zz_normalize(quot), _gf_trunc(rem[:dg], p)
    nb = _slot_bytes(k * (p - 1) ** 2 + p)
    w, low = 8 * nb, (1 << 8 * nb * dg) - 1
    rem = [c % p for c in f]
    neg_g = _slot_pack([-c % p for c in g], nb)
    x = _slot_pack(rem[k:], nb)
    for i in range(k - 1, -1, -1):
        x = x << w | rem[i]  # slots i .. i + dg of the running remainder
        c = (x >> w * dg) % p
        if c:
            q = c * inv % p
            quot[i] = q
            x += q * neg_g
        x &= low
    return _zz_normalize(quot), _gf_trunc(_slot_unpack(x, dg, nb), p)


def _gf_monic(f: Sequence[int], p: int) -> list[int]:
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _gf_gcd(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    """Monic gcd in F_p[x]."""
    a, b = _gf_trunc(f, p), _gf_trunc(g, p)
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    return _gf_monic(a, p) if a else []


# -- canonical text form ---------------------------------------------------


def _format_power(var: str, power: int) -> str:
    if power == 0:
        return ""
    if power == 1:
        return var
    return f"{var}^{power}"


def _rational_term(q: Fraction, power: int, var: str) -> tuple[str, str]:
    """Render q * var^power as (joiner_sign, body); joiner '-' flips to magnitude."""
    if power == 0:
        if q.denominator == 1:
            return ("-", str(-q)) if q < 0 else ("+", str(q))
        # negative non-integer constants keep the parenthesized form
        return ("+", f"({q})") if q < 0 else ("+", str(q))
    pw = _format_power(var, power)
    if q == 1:
        return "+", pw
    if q == -1:
        return "-", pw
    if q.denominator == 1:
        return ("-", f"{-q}*{pw}") if q < 0 else ("+", f"{q}*{pw}")
    return ("+", f"({q})*{pw}") if q < 0 else ("+", f"{q}*{pw}")


def _join_terms(terms: Iterable[tuple[str, str]]) -> str:
    """Join (sign, body) terms, highest power first, as "a + b - c"; "0" for no terms."""
    parts: list[str] = []
    for sign, body in terms:
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts) or "0"


def format_poly(p: Poly, var: str = "z") -> str:
    """Canonical text: descending powers, e.g. "z^6 + (-7/4)*z^3 + 1/2"."""
    return _join_terms(
        _rational_term(q, power, var) for power, q in reversed(list(enumerate(p.coeffs))) if q
    )


def _bipoly_term(coeff: Poly, power: int) -> tuple[str, str]:
    if coeff.is_constant():
        return _rational_term(coeff.constant_value(), power, "z")
    n_terms = sum(1 for q in coeff.coeffs if q != 0)
    inner = format_poly(coeff, "c")
    pw = _format_power("z", power)
    if n_terms > 1:
        body = f"({inner})"
    elif inner.startswith("-"):
        return "-", f"{inner[1:]}*{pw}" if pw else inner[1:]
    else:
        body = inner
    return "+", f"{body}*{pw}" if pw else body


def format_bipoly(coeffs: Sequence[Poly]) -> str:
    """Canonical text of sum coeffs_i(c) * z^i, e.g. "z^2 + z + (c + 1)" for (c + 1, 1, 1)."""
    return _join_terms(
        _bipoly_term(coeff, power) for power, coeff in reversed(list(enumerate(coeffs))) if coeff
    )


def parse_poly(text: str) -> Poly:
    """Parse the canonical text form back into a Poly.

    Accepts optional whitespace, parenthesized signed rationals, '*' between
    coefficient and variable, and '^' powers.  A degree above DEGREE_GUARD
    raises DegreeGuardError before any dense coefficient list is built.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return Poly.zero()
    # split into signed terms at parenthesis depth 0
    terms: list[tuple[int, str]] = []
    depth = 0
    sign = 1
    buf: list[str] = []
    for ch in s:
        if ch == "(":
            depth += 1
            buf.append(ch)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
            buf.append(ch)
        elif ch in "+-" and depth == 0:
            if "".join(buf).strip():
                terms.append((sign, "".join(buf).strip()))
                sign = 1
            elif terms:
                raise ValueError(f"dangling sign in {text!r}")
            if ch == "-":
                sign = -sign
            buf = []
        else:
            buf.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    last = "".join(buf).strip()
    if not last:
        raise ValueError(f"trailing operator in {text!r}")
    terms.append((sign, last))

    coeffs: dict[int, Fraction] = {}
    for tsign, term in terms:
        coeff, power = _parse_term(term, text)
        coeffs[power] = coeffs.get(power, _ZERO) + tsign * coeff
    top = max((k for k, v in coeffs.items() if v), default=0)
    if top > DEGREE_GUARD:
        raise DegreeGuardError(f"polynomial degree {top} exceeds the guard {DEGREE_GUARD}")
    return Poly([coeffs.get(i, _ZERO) for i in range(top + 1)])


def _parse_term(term: str, original: str) -> tuple[Fraction, int]:
    body = term.replace(" ", "")
    coeff = _ONE
    saw_coeff = False
    if body.startswith("("):
        close = body.index(")")
        inner = body[1:close]
        coeff = _parse_fraction(inner, original)
        saw_coeff = True
        body = body[close + 1 :]
        if body.startswith("*"):
            body = body[1:]
    if not body:
        return coeff, 0
    if body.startswith("z"):
        rest = body[1:]
    else:
        # leading bare number, possibly followed by * z
        stop = len(body)
        for i, ch in enumerate(body):
            if ch in "*z":
                stop = i
                break
        num = body[:stop]
        if not num:
            raise ValueError(f"cannot parse term {term!r} in {original!r}")
        coeff = coeff * _parse_fraction(num, original) if saw_coeff else _parse_fraction(num, original)
        body = body[stop:]
        if body.startswith("*"):
            body = body[1:]
        if not body:
            return coeff, 0
        if not body.startswith("z"):
            raise ValueError(f"unexpected variable in term {term!r} of {original!r}")
        rest = body[1:]
    if not rest:
        return coeff, 1
    if not rest.startswith("^"):
        raise ValueError(f"cannot parse term {term!r} in {original!r}")
    try:
        power = int(rest[1:])
    except ValueError as exc:
        raise ValueError(f"bad exponent in term {term!r} of {original!r}") from exc
    if power < 0:
        raise ValueError(f"negative exponent in {original!r}")
    return coeff, power


def _parse_fraction(text: str, original: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r} in {original!r}") from exc
