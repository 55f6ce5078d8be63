"""Periodic orbits of z^d + c extracted algebraically from dynatomic factors.

Each irreducible factor of the period-N dynatomic polynomial yields an orbit
of the class of z inside Q[z]/(factor).  The exact period is established by
direct iteration in the algebra, never inferred from root membership, so
degenerate parameters (where dynatomic roots have smaller period) are
detected and flagged rather than miscounted.  Factors whose roots lie on the
same Galois orbit of cycles are merged into a single record.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .errors import NonPeriodicError
from .factorq import factor_over_q
from .maps import MapSpec, dynatomic_poly
from .numberfield import (
    AlgElement,
    QuadraticElement,
    QuotientAlgebra,
    apply_phi,
    minimal_polynomial,
    realize_quadratic,
)
from .polynomials import Poly, format_poly
from .rationals import format_rational


@dataclass(frozen=True)
class CycleRecord:
    """One Galois orbit of cycles: base factor, orbit, and its trace.

    `orbit` lists the forward images of the class of z in Q[z]/(factor) and
    `trace` is their sum, e_1.  `merged_factors` lists every irreducible
    factor of the dynatomic polynomial whose roots lie on this orbit of
    cycles: the minimal polynomials of the first k orbit elements, where the
    cycle's stabiliser acts as kZ/NZ (see `property_a.check_point`).
    `quadratic_points` and `discriminant` are computed when first read, since
    realizing a quadratic point factors its discriminant and no verdict needs it.
    """

    spec: MapSpec
    n_requested: int
    factor: Poly
    multiplicity: int
    field_degree: int
    exact_period: int
    orbit: tuple[AlgElement, ...]
    trace: AlgElement
    merged_factors: tuple[Poly, ...]

    @property
    def degenerate(self) -> bool:
        return self.exact_period < self.n_requested

    @cached_property
    def quadratic_points(self) -> tuple[QuadraticElement, ...] | None:
        """The orbit as explicit a + b*sqrt(D) values when D <= 2, else None."""
        if self.field_degree == 1:
            return tuple(QuadraticElement.rational(el.as_rational()) for el in self.orbit)
        if self.field_degree == 2:
            return tuple(realize_quadratic(self.factor, self.orbit))
        return None

    @property
    def discriminant(self) -> int | None:
        """Squarefree discriminant of the quadratic field, when D = 2."""
        points = self.quadratic_points
        return points[0].disc if points else None

    def rational_orbit(self) -> list[Fraction]:
        if self.field_degree != 1:
            raise ValueError("orbit is not rational")
        return [el.as_rational() for el in self.orbit]

    def point_strings(self) -> list[str]:
        if self.quadratic_points is not None:
            return [str(p) for p in self.quadratic_points]
        return [format_poly(el.representative) for el in self.orbit]

    def to_json_dict(self) -> dict:
        trace = (
            format_rational(self.trace.as_rational())
            if self.trace.is_rational()
            else format_poly(self.trace.representative)
        )
        return {
            "d": self.spec.d,
            "c": format_rational(self.spec.c),
            "N": self.n_requested,
            "exact_period": self.exact_period,
            "field_degree": self.field_degree,
            "discriminant": self.discriminant,
            "points": self.point_strings(),
            "trace": trace,
        }


def _orbit_of_generator(
    algebra: QuotientAlgebra, spec: MapSpec, n: int
) -> tuple[list[AlgElement], int]:
    escape = abs(spec.c) + 1  # rational points beyond this grow forever
    start = algebra.generator()
    orbit = [start]
    x = start
    for step in range(1, n + 1):
        if x.is_rational() and abs(x.as_rational()) > escape:
            raise NonPeriodicError(
                f"value {x.as_rational()} escapes; the root is not periodic"
            )
        x = apply_phi(x, spec.d, spec.c)
        if x == start:
            return orbit, step
        orbit.append(x)
    raise NonPeriodicError(
        f"no return to start within {n} steps; "
        "factor roots are not periodic under this map"
    )


def _build_record(factor: Poly, multiplicity: int, spec: MapSpec, n_requested: int) -> CycleRecord:
    algebra = QuotientAlgebra(factor)
    orbit, period = _orbit_of_generator(algebra, spec, n_requested)
    if len(set(orbit)) != len(orbit):
        raise NonPeriodicError("orbit revisited an element before returning to start")
    return CycleRecord(
        spec=spec,
        n_requested=n_requested,
        factor=algebra.modulus,
        multiplicity=multiplicity,
        field_degree=algebra.degree,
        exact_period=period,
        orbit=tuple(orbit),
        trace=sum(orbit[1:], orbit[0]),
        merged_factors=(algebra.modulus,),
    )


def _merge_records(records: list[CycleRecord]) -> list[CycleRecord]:
    """Merge records whose factors meet the same Galois orbit of cycles.

    Galois conjugation commutes with the map, so a Galois element moves z to
    some phi^i(z), and the factors on the orbit of cycles of z are the
    minimal polynomials of its orbit elements.  The i with phi^i(z) a root of
    the record's own factor form a subgroup kZ/NZ, so phi^0(z), ...,
    phi^(k-1)(z) already give every such factor, once each: a record not yet
    absorbed walks its orbit until a minimal polynomial equals its factor.
    Minimal polynomials are only computed inside groups that share (field
    degree, exact period, multiplicity) and have more than one member.
    """
    groups: dict[tuple[int, int, int], list[Poly]] = defaultdict(list)
    for rec in records:
        groups[(rec.field_degree, rec.exact_period, rec.multiplicity)].append(rec.factor)

    absorbed: list[Poly] = []
    out = []
    for rec in records:  # preserve canonical factor order
        if rec.factor in absorbed:
            continue
        group = groups[(rec.field_degree, rec.exact_period, rec.multiplicity)]
        orbit_factors = [rec.factor]
        if len(group) > 1:
            for el in rec.orbit[1:]:
                minpoly = minimal_polynomial(el)
                if minpoly == rec.factor:
                    break
                orbit_factors.append(minpoly)
        members = sorted(
            (f for f in group if f in orbit_factors), key=lambda p: tuple(reversed(p.coeffs))
        )
        absorbed += members
        out.append(replace(rec, merged_factors=tuple(members)))
    return out


def cycles_from_dynatomic(spec: MapSpec, n: int) -> list[CycleRecord]:
    """One CycleRecord per Galois orbit of cycles among the period-n dynatomic roots.

    Records with exact period < n are retained and flagged as degenerate so
    aggregate decisions can tell "no exact-period-n point exists" apart from
    "all of them behave".
    """
    if n < 1:
        raise ValueError(f"period must be >= 1, got {n}")
    phi_n = dynatomic_poly(spec, n)
    factorization = factor_over_q(phi_n)
    records = [_build_record(factor, mult, spec, n) for factor, mult in factorization.factors]
    return _merge_records(records)


def quadratic_cycles(spec: MapSpec, n: int) -> list[CycleRecord]:
    """Cycles of exact period n realized in a quadratic field."""
    return [
        rec
        for rec in cycles_from_dynatomic(spec, n)
        if rec.field_degree == 2 and rec.exact_period == n
    ]
