"""Arithmetic in Q[z]/(f), exact linear algebra over Q, and quadratic fields.

A `QuotientAlgebra` is the quotient by a monic irreducible modulus; its
elements house periodic points algebraically.  Internally elements live in
the rescaled basis w = s*z of `polynomials._monic_scale`, in which the
modulus is monic with integer coefficients: every element enters through
`_reduce` as an integer vector over one denominator, so it reduces with pure
integer row operations and one gcd normalization.  The public representative
is still a polynomial in z of degree < D over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .errors import NotQuadraticIrrational, ParentMismatchError
from .polynomials import (
    Poly, _Dense, _Scaled, _monic_scale, _scaled_lift, _unscale, _zz_divmod, _zz_primitive,
)

_ZERO = Fraction(0)


class QuotientAlgebra:
    """Q[z]/(modulus) for a monic modulus of degree D >= 1.

    Irreducibility of the modulus is the caller's responsibility (obtain it
    from a factorization); arithmetic works regardless, field axioms do not.
    """

    __slots__ = ("modulus", "degree", "_scale", "_int_modulus")

    def __init__(self, modulus: Poly):
        if modulus.degree() < 1:
            raise ValueError("modulus must have degree >= 1")
        modulus = modulus.monic()
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "degree", modulus.degree())
        scale, int_mod = _monic_scale(modulus._nums)  # w = scale*z is a root of int_mod
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_int_modulus", tuple(int_mod))

    def __setattr__(self, name, value):
        raise AttributeError("QuotientAlgebra is immutable")

    def __reduce__(self):
        return (QuotientAlgebra, (self.modulus,))

    def __eq__(self, other) -> bool:
        return isinstance(other, QuotientAlgebra) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def __repr__(self) -> str:
        return f"QuotientAlgebra({self.modulus!r})"

    # -- element construction ------------------------------------------------

    def element(self, rep: Poly | Fraction | int) -> AlgElement:
        """Class of a polynomial (reduced mod the modulus) or of a rational.

        rep = sum F_k w^k / (L*s^n) for w = s*z, (F, L) = `_scaled_lift` of rep
        and n = deg rep.
        """
        if isinstance(rep, (Fraction, int)):
            rep = Poly.constant(rep)
        nums, den = _scaled_lift(rep._nums, rep._den, self._scale)
        return self._reduce(nums, den * self._scale ** max(rep.degree(), 0))

    def zero(self) -> AlgElement:
        return AlgElement(self, (), 1)

    def one(self) -> AlgElement:
        return AlgElement(self, (1,), 1)

    def generator(self) -> AlgElement:
        """The class of z itself."""
        return self.element(Poly.identity())

    def _reduce(self, nums: list[int], den: int) -> AlgElement:
        """The class of sum nums_k w^k / den, den != 0, for a w-basis vector of any length.

        The vector is reduced mod the modulus and brought to lowest terms with den > 0,
        the one form every element is stored in.
        """
        *rem, den = _zz_primitive(_zz_divmod(nums, self._int_modulus)[1] + [den])
        return AlgElement(self, tuple(rem), den)


class AlgElement(_Scaled):
    """Element of a QuotientAlgebra, stored as a `_Scaled` vector in the basis w^k, w = s*z."""

    __slots__ = ("parent",)

    def __init__(self, parent: QuotientAlgebra, nums: tuple[int, ...], den: int):
        object.__setattr__(self, "parent", parent)
        self._store(nums, den)

    def __reduce__(self):
        return (AlgElement, (self.parent, self._nums, self._den))

    def _coerce(self, other) -> AlgElement:
        if isinstance(other, AlgElement):
            if self.parent is not other.parent and self.parent != other.parent:
                raise ParentMismatchError("elements belong to different algebras")
            return other
        if isinstance(other, (int, Fraction)):
            return self.parent.element(other)
        return NotImplemented

    def _make(self, nums: list[int], den: int) -> AlgElement:
        return self.parent._reduce(nums, den)

    # -- views ---------------------------------------------------------------

    @property
    def representative(self) -> Poly:
        """Representative polynomial in z of degree < D."""
        return Poly._make(_unscale(self._nums, self.parent._scale), self._den)

    def coordinates(self) -> list[Fraction]:
        """Coordinates in the internal basis; a Q-vector space view for linear algebra."""
        pad = [_ZERO] * (self.parent.degree - len(self._nums))
        return [Fraction(n, self._den) for n in self._nums] + pad

    def is_rational(self) -> bool:
        return len(self._nums) <= 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self._nums[0] if self._nums else 0, self._den)

    def __repr__(self) -> str:
        return f"AlgElement({self.representative!s})"


def apply_phi(x: AlgElement, d: int, c: Fraction) -> AlgElement:
    """Image of x under z -> z^d + c, reduced in the algebra."""
    if d < 2:
        raise ValueError("map degree must be >= 2")
    return x**d + c


# -- exact linear algebra ----------------------------------------------------


class _RationalRowSpace:
    """Incremental row-reduced span of Q-vectors; exact, deterministic."""

    def __init__(self):
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def reduce(self, vec: list[Fraction]) -> list[Fraction]:
        """vec minus its components along the stored pivot rows."""
        for row, piv in zip(self.rows, self.pivots):
            c = vec[piv]
            if c:
                vec = [a - c * b for a, b in zip(vec, row)]
        return vec

    def add(self, vec: Sequence[Fraction]) -> bool:
        """Insert a vector; True if it enlarged the span."""
        red = self.reduce(list(vec))
        piv = next((i for i, c in enumerate(red) if c), None)
        if piv is None:
            return False
        inv = red[piv]
        red = [c / inv for c in red]
        self.rows.append(red)
        self.pivots.append(piv)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def minimal_polynomial(x: AlgElement) -> Poly:
    """Monic polynomial of least degree vanishing at x.

    Found as the first linear dependency among 1, x, x^2, ...: the row space
    holds coords(x^k) || e_k for k < m, so when coords(x^m) || e_m reduces to
    zero in its first D entries, the rest spells out a dependency with
    coefficient 1 at x^m.  The degree divides the algebra degree when the
    modulus is irreducible.
    """
    d = x.parent.degree
    space = _RationalRowSpace()
    power = x.parent.one()
    for m in range(d + 1):
        vec = power.coordinates() + [_ZERO] * (d + 1)
        vec[d + m] = Fraction(1)
        red = space.reduce(vec)
        if not any(red[:d]):
            return Poly(red[d : d + m + 1])
        space.add(red)
        power = power * x if m else x
    raise AssertionError("no dependency among D+1 powers; broken algebra")


def subfield_degree(generators: Sequence[AlgElement]) -> int:
    """Degree over Q of the subfield generated by the given elements.

    Computed as the Q-dimension of the unital subalgebra spanned by all
    monomials in the generators (a finite-dimensional domain inside a field
    is the subfield itself).  Exact, deterministic, and polynomial time.
    """
    if not generators:
        raise ValueError("need at least one generator")
    parent = generators[0].parent
    for g in generators[1:]:
        if g.parent is not parent and g.parent != parent:
            raise ParentMismatchError("generators belong to different algebras")
    space = _RationalRowSpace()
    one = parent.one()
    space.add(one.coordinates())
    queue = [one]
    while queue:
        v = queue.pop(0)
        for g in generators:
            w = v * g
            if space.add(w.coordinates()):
                queue.append(w)
    return space.rank


# -- quadratic normal forms --------------------------------------------------


def _extract_square(n: int) -> tuple[int, int]:
    """n = t^2 * s with s squarefree (sign kept on s); returns (t, s).

    Trial division runs only while p^3 <= m for the part m not yet split:
    every prime factor of m then exceeds m^(1/3), so m is 1, q, q*r or q^2
    for primes q != r, and one isqrt tells q^2 from the others.
    """
    if n == 0:
        return 1, 0
    sign = -1 if n < 0 else 1
    m = abs(n)
    t = s = 1
    p = 2
    while p * p * p <= m:
        while m % (p * p) == 0:
            m //= p * p
            t *= p
        if m % p == 0:
            m //= p
            s *= p
        p += 1 if p == 2 else 2
    r = isqrt(m)
    if r * r == m:
        t *= r
    else:
        s *= m
    return t, sign * s


@dataclass(frozen=True)
class QuadraticElement(_Dense):
    """a + b*sqrt(disc) with squarefree disc; disc is None for plain rationals."""

    disc: int | None
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if self.disc is None:
            if self.b != 0:
                raise ValueError("irrational part requires a discriminant")
        elif self.disc in (0, 1):
            raise ValueError("discriminant must be squarefree and not 0 or 1")

    @classmethod
    def rational(cls, q: Fraction | int) -> QuadraticElement:
        return cls(None, Fraction(q), _ZERO)

    def _joint_disc(self, other: QuadraticElement) -> int | None:
        if self.disc is None:
            return other.disc
        if other.disc is None or other.disc == self.disc:
            return self.disc
        raise ValueError("elements of different quadratic fields")

    @staticmethod
    def _coerce(value) -> QuadraticElement:
        if isinstance(value, QuadraticElement):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadraticElement.rational(value)
        return NotImplemented

    def __add__(self, other) -> QuadraticElement:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._joint_disc(other)
        b = self.b + other.b
        return QuadraticElement(d if b else None, self.a + other.a, b)

    def __neg__(self) -> QuadraticElement:
        return QuadraticElement(self.disc, -self.a, -self.b)

    def __mul__(self, other) -> QuadraticElement:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._joint_disc(other)
        a = self.a * other.a + (self.b * other.b * d if d is not None else 0)
        b = self.a * other.b + self.b * other.a
        return QuadraticElement(d if b else None, a, b)

    def conjugate(self) -> QuadraticElement:
        return QuadraticElement(self.disc, self.a, -self.b) if self.b else self

    def is_rational(self) -> bool:
        return self.b == 0

    def apply_phi(self, d: int, c: Fraction) -> QuadraticElement:
        return self**d + c

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.disc})"
        if self.b == 1:
            tail = root
        elif self.b == -1:
            tail = f"-{root}"
        else:
            tail = f"{self.b}*{root}"
        if self.a == 0:
            return tail
        if tail.startswith("-"):
            return f"{self.a} - {tail[1:]}"
        return f"{self.a} + {tail}"


def as_quadratic(f: Poly) -> tuple[QuadraticElement, QuadraticElement]:
    """Both roots of an irreducible rational quadratic, in a +- b*sqrt(D) form.

    Raises NotQuadraticIrrational when the discriminant is a rational square
    (i.e. the roots are rational).  The root with positive sqrt coefficient
    comes first.
    """
    if f.degree() != 2:
        raise ValueError("as_quadratic needs a degree-2 polynomial")
    a2, a1, a0 = f.coefficient(2), f.coefficient(1), f.coefficient(0)
    disc = a1 * a1 - 4 * a2 * a0
    if disc == 0:
        raise NotQuadraticIrrational("double rational root")
    t, s = _extract_square(disc.numerator * disc.denominator)
    if s == 1:
        raise NotQuadraticIrrational("discriminant is a perfect rational square")
    mid = -a1 / (2 * a2)
    rad = abs(Fraction(t, disc.denominator) / (2 * a2))
    return (
        QuadraticElement(s, mid, rad),
        QuadraticElement(s, mid, -rad),
    )


def realize_quadratic(base_factor: Poly, elements: Sequence[AlgElement]) -> list[QuadraticElement]:
    """Map elements of Q[z]/(quadratic factor) to explicit a + b*sqrt(D) values.

    The class of z goes to the root with positive sqrt coefficient.
    """
    root = as_quadratic(base_factor.monic())[0]
    out = []
    for el in elements:
        rep = el.representative
        value = QuadraticElement.rational(rep.coefficient(0)) + rep.coefficient(1) * root
        out.append(value)
    return out
