"""Iterates of z -> z^d + c and dynatomic polynomials, exact and symbolic.

The period-N dynatomic polynomial is obtained by one exact division of
grouped products over the divisor lattice: numerator over divisors with
Mobius sign +1, denominator over sign -1.  Division is exact as a polynomial
identity in both z and c, so a nonzero remainder is a fatal bug, not a data
condition.  One chain builder and one Mobius quotient serve Q[z] (rational c)
and Q[c][z] (symbolic c) alike.  Iterates are built per call: no cache
outlives the call that built them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul

from .errors import DegreeGuardError
from .polynomials import DEGREE_GUARD, BiPoly, Poly
from .rationals import divisors, mobius


@dataclass(frozen=True)
class MapSpec:
    """The unicritical map z -> z^d + c."""

    d: int
    c: Fraction

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"map degree must be >= 2, got {self.d}")
        if not isinstance(self.c, Fraction):
            object.__setattr__(self, "c", Fraction(self.c))

    def __str__(self) -> str:
        return f"z^{self.d} + {self.c}" if self.c >= 0 else f"z^{self.d} - {-self.c}"


def _chain(z, c, d: int, n: int) -> list:
    """[z, phi(z), ..., phi^n(z)] for phi = z^d + c, in the ring of z and c."""
    chain = [z]
    for _ in range(n):
        chain.append(chain[-1] ** d + c)
    return chain


def _mobius_quotient(chain: list, n: int):
    """Phi_n = prod over m | n of (phi^m(z) - z)^mu(n/m), from a chain reaching phi^n.

    Each product starts from its first factor; only n = 1 has no denominator.
    """
    z = chain[0]
    factors = {1: [], -1: []}
    for m in divisors(n):
        mu = mobius(n // m)
        if mu:
            factors[mu].append(chain[m] - z)
    numerator = reduce(mul, factors[1])
    return numerator.exact_div(reduce(mul, factors[-1])) if factors[-1] else numerator


def dynatomic_degree(d: int, n: int) -> int:
    """Degree of the period-n dynatomic polynomial: sum mu(n/m) d^m over m | n."""
    if d < 2:
        raise ValueError(f"map degree must be >= 2, got {d}")
    if n < 1:
        raise ValueError(f"period must be >= 1, got {n}")
    return sum(mobius(n // m) * d**m for m in divisors(n))


def check_degree_guard(d: int, n: int) -> None:
    deg = dynatomic_degree(d, n)
    if deg > DEGREE_GUARD:
        raise DegreeGuardError(
            f"dynatomic degree {deg} for (d={d}, N={n}) exceeds the guard {DEGREE_GUARD}"
        )


def dynatomic_poly(spec: MapSpec, n: int) -> Poly:
    """Period-n dynatomic polynomial of z^d + c at a specific rational c."""
    check_degree_guard(spec.d, n)
    return _mobius_quotient(_chain(Poly.identity(), Poly.constant(spec.c), spec.d, n), n)


def dynatomic_poly_generic(d: int, n: int) -> BiPoly:
    """Period-n dynatomic polynomial with c symbolic, in Q[c][z]."""
    check_degree_guard(d, n)
    return _mobius_quotient(_chain(BiPoly.identity(), BiPoly.parameter(), d, n), n)


def verify_product_identity(spec: MapSpec, n: int) -> bool:
    """Check that the dynatomic polynomials over divisors of n multiply to phi^n(z) - z."""
    if n < 1:
        raise ValueError(f"period must be >= 1, got {n}")
    for m in divisors(n):
        check_degree_guard(spec.d, m)
    chain = _chain(Poly.identity(), Poly.constant(spec.c), spec.d, n)
    product = reduce(mul, (_mobius_quotient(chain, m) for m in divisors(n)))
    return product == chain[n] - chain[0]
