"""Dense exact polynomial arithmetic.

`Poly` is a univariate polynomial over Q stored as a coefficient list
(index = power).  `BiPoly` is a polynomial in z whose coefficients are
`Poly` objects in the parameter c, i.e. an element of Q[c][z].

Multiplication lifts coefficient vectors to a common integer denominator and
convolves machine-free Python ints; division over Q rescales z so that the
divisor becomes monic in Z[x] and runs the Z[x] long division.  Below the
classes sits the one list kernel for Z[x] and F_p[x]: gcds in Z[x] are built
from F_p images by the Chinese remainder theorem and proved by exact
division, and Yun's squarefree split runs on primitive integer forms.
Everything is exact; nothing here ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm
from typing import Iterable, Sequence

from .errors import DegreeGuardError, NonExactDivisionError, PolynomialZeroDivisionError
from .rationals import primes

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEGREE_GUARD = 5000


def _lift_common_denominator(coeffs: Sequence[Fraction], s: int = 1) -> tuple[list[int], int]:
    """(N, L): N_j = L*c_j*s^(n-j) for n = len(coeffs) - 1, with the least L > 0 making N integral."""
    parts, pw = [], 1
    for c in reversed(coeffs):
        g = int_gcd(c.denominator, pw)
        parts.append((c.numerator * (pw // g), c.denominator // g))
        pw *= s
    den = lcm(*(d for _, d in parts))
    return [num * (den // d) for num, d in reversed(parts)], den


def _monic_scale(h: Sequence[Fraction]) -> int:
    """An s with s^(D-i)*h_i integral for every i, for monic h of degree D; greedy, no factoring."""
    s, top = 1, len(h) - 1
    for i in range(top - 1, -1, -1):
        den = h[i].denominator
        s *= den // int_gcd(den, s ** (top - i))
    return s


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of integer coefficient lists; [] when either operand is empty."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _power(base, n: int, one):
    """base**n for n >= 0 by square-and-multiply; `one` is the ring's identity."""
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


class _Dense:
    """Ring code shared by `Poly` and `BiPoly`: immutable dense coefficient tuples.

    `_coeffs` holds the coefficients by power with no trailing zeros.  A
    subclass supplies `__init__`, `__mul__` and a `_coerce` staticmethod that
    turns an operand into an instance or returns NotImplemented; equality and
    the additive operations coerce through it, so `a == b` exactly when
    `(a - b).is_zero()`.
    """

    __slots__ = ("_coeffs",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), (self._coeffs,))

    @classmethod
    def zero(cls):
        return cls(())

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        # a constant equals the number it holds, so it must hash like it too
        if len(self._coeffs) <= 1:
            return hash(self._coeffs[0] if self._coeffs else 0)
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self._coeffs)!r})"

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return type(self)(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)([-c for c in self._coeffs])

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
            raise ValueError("negative power of a polynomial")
        return _power(self, n, self._coerce(1))


class Poly(_Dense):
    """Immutable dense polynomial over Q in one variable (conventionally z)."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    @staticmethod
    def _coerce(value) -> Poly:
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly.constant(value)
        return NotImplemented

    # -- constructors ------------------------------------------------------

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

    def is_constant(self) -> bool:
        return len(self._coeffs) <= 1

    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            return _ZERO
        return self._coeffs[-1]

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self._coeffs[0] if self._coeffs else _ZERO

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return _ZERO

    def __str__(self) -> str:
        return format_poly(self)

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other) -> Poly:
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        na, da = _lift_common_denominator(self._coeffs)
        nb, db = _lift_common_denominator(other._coeffs)
        nums = _convolve(na, nb)
        den = da * db
        return Poly([Fraction(n, den) for n in nums])

    __rmul__ = __mul__

    def __call__(self, x):
        """Horner evaluation; works for Fraction, int, and any ring element."""
        if not self._coeffs:
            return _ZERO if isinstance(x, (int, Fraction)) else x * 0
        acc = self._coeffs[-1] if isinstance(x, (int, Fraction)) else x * 0 + self._coeffs[-1]
        for c in reversed(self._coeffs[:-1]):
            acc = acc * x + c
        return acc

    def monic(self) -> Poly:
        if not self._coeffs:
            raise PolynomialZeroDivisionError("no monic form of the zero polynomial")
        lc = self._coeffs[-1]
        if lc == 1:
            return self
        return Poly([c / lc for c in self._coeffs])

    # -- division ----------------------------------------------------------

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Long division over Q run in Z[u], z = u/s: F = L*s^n*f(u/s) by G = s^D*h(u/s).

        h = other/lc is monic of degree D, so G is monic in Z[u], and F = Q*G + R gives
        q_i = Q_i/(L*lc*s^(deg q - i)) and r_i = R_i/(L*s^(n - i)) for n = deg f.
        """
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise PolynomialZeroDivisionError("polynomial division by zero")
        if self.degree() < other.degree():
            return Poly.zero(), self
        lc, h = other._coeffs[-1], other.monic()._coeffs
        s = _monic_scale(h)
        big_f, big_l = _lift_common_denominator(self._coeffs, s)
        quot, rem = _zz_divmod(big_f, _lift_common_denominator(h, s)[0])
        n, top, qden = len(big_f) - 1, len(quot) - 1, big_l * lc.numerator
        q = [Fraction(c * lc.denominator, qden * s ** (top - i)) for i, c in enumerate(quot)]
        return Poly(q), Poly([Fraction(c, big_l * s ** (n - i)) for i, c in enumerate(rem)])

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def exact_div(self, other: Poly) -> Poly:
        """Quotient when the division is exact; raises NonExactDivisionError otherwise."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise NonExactDivisionError(
                f"remainder of degree {r.degree()} in supposedly exact division"
            )
        return q

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
        f = _zz_primitive(_lift_common_denominator(self._coeffs)[0])
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
    zeros; g may not.
    """
    rem = list(f)
    dg = len(g) - 1
    lcg = g[-1]
    quot = [0] * max(len(rem) - dg, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem.pop()  # the term of degree k + dg, cancelled by q*x^k*g
        if c:
            q, m = divmod(c, lcg)
            if m:
                return None
            quot[k] = q
            for i in range(dg):
                rem[k + i] -= q * g[i]
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

    The remainder is reduced once, at the end; with |g_i| < p it stays below len(q)*p^2.
    """
    if not g:
        raise ZeroDivisionError("gf division by zero")
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
    return _zz_normalize(quot), _gf_trunc(rem[:dg], p)


def _gf_monic(f: Sequence[int], p: int) -> list[int]:
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _gf_gcd(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    """Monic gcd in F_p[x]; the one Euclidean remainder loop of the package."""
    a, b = _gf_trunc(f, p), _gf_trunc(g, p)
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    return _gf_monic(a, p) if a else []


# -- bivariate layer -------------------------------------------------------


class BiPoly(_Dense):
    """Polynomial in z with coefficients in Q[c], stored dense in z."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Poly] = ()):
        cs = [c if isinstance(c, Poly) else Poly.constant(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    @staticmethod
    def _coerce(value) -> BiPoly:
        if isinstance(value, BiPoly):
            return value
        if isinstance(value, (int, Fraction, Poly)):
            return BiPoly((value,))
        return NotImplemented

    @classmethod
    def identity(cls) -> BiPoly:
        """The polynomial z."""
        return cls((Poly.zero(), Poly.one()))

    @classmethod
    def parameter(cls) -> BiPoly:
        """The polynomial c (constant in z)."""
        return cls((Poly.identity(),))

    def __str__(self) -> str:
        return format_bipoly(self)

    def __mul__(self, other) -> BiPoly:
        other = BiPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return BiPoly.zero()
        out = [Poly.zero()] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if not a.is_zero():
                for j, b in enumerate(other._coeffs):
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
        return BiPoly(out)

    __rmul__ = __mul__

    def exact_div(self, other: BiPoly) -> BiPoly:
        """Exact long division in Q[c][z]; every coefficient step must divide exactly."""
        if other.is_zero():
            raise PolynomialZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return BiPoly.zero()
        if self.degree() < other.degree():
            raise NonExactDivisionError("dividend degree below divisor degree")
        rem = list(self._coeffs)
        div = other._coeffs
        dd = len(div) - 1
        lc = div[-1]
        quot = [Poly.zero()] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c.is_zero():
                continue
            q = c.exact_div(lc)
            quot[k - dd] = q
            for i in range(dd + 1):
                rem[k - dd + i] = rem[k - dd + i] - q * div[i]
        if any(not r.is_zero() for r in rem):
            raise NonExactDivisionError("nonzero remainder in bivariate division")
        return BiPoly(quot)

    def evaluate_c(self, c_value: Fraction | int) -> Poly:
        """Specialize the parameter c, leaving a univariate polynomial in z."""
        c_value = Fraction(c_value)
        return Poly([p(c_value) for p in self._coeffs])


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


def format_poly(p: Poly, var: str = "z") -> str:
    """Canonical text: descending powers, e.g. "z^6 + (-7/4)*z^3 + 1/2"."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for power in range(p.degree(), -1, -1):
        q = p.coefficient(power)
        if q == 0:
            continue
        sign, body = _rational_term(q, power, var)
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {'-' if sign == '-' else '+'} {body}")
    return "".join(parts)


def _bipoly_term(coeff: Poly, power: int, var: str, cvar: str) -> tuple[str, str]:
    if coeff.is_constant():
        return _rational_term(coeff.constant_value(), power, var)
    n_terms = sum(1 for q in coeff.coeffs if q != 0)
    inner = format_poly(coeff, cvar)
    pw = _format_power(var, power)
    if n_terms > 1:
        body = f"({inner})"
    elif inner.startswith("-"):
        return "-", f"{inner[1:]}*{pw}" if pw else inner[1:]
    else:
        body = inner
    return "+", f"{body}*{pw}" if pw else body


def format_bipoly(p: BiPoly, var: str = "z", cvar: str = "c") -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for power in range(p.degree(), -1, -1):
        coeff = p.coeffs[power]
        if coeff.is_zero():
            continue
        sign, body = _bipoly_term(coeff, power, var, cvar)
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {'-' if sign == '-' else '+'} {body}")
    return "".join(parts)


def parse_poly(text: str, var: str = "z") -> Poly:
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
        coeff, power = _parse_term(term, var, text)
        coeffs[power] = coeffs.get(power, _ZERO) + tsign * coeff
    top = max((k for k, v in coeffs.items() if v), default=0)
    if top > DEGREE_GUARD:
        raise DegreeGuardError(f"polynomial degree {top} exceeds the guard {DEGREE_GUARD}")
    return Poly([coeffs.get(i, _ZERO) for i in range(top + 1)])


def _parse_term(term: str, var: str, original: str) -> tuple[Fraction, int]:
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
    if body.startswith(var):
        rest = body[len(var) :]
    else:
        # leading bare number, possibly followed by * var
        stop = len(body)
        for i, ch in enumerate(body):
            if ch == "*" or ch == var:
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
        if not body.startswith(var):
            raise ValueError(f"unexpected variable in term {term!r} of {original!r}")
        rest = body[len(var) :]
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
