"""Exact arithmetic of dynatomic polynomials for the maps z -> z^d + c.

Builds dynatomic polynomials over Q (and with symbolic parameter), factors
them into irreducibles, extracts periodic cycles as elements of quotient
algebras, and decides the cycle-field vs orbit-field degree criterion per
periodic point, with a height-ordered parameter scanner on top.
"""

from .rationals import (
    divisors,
    enumerate_rationals_by_height,
    format_rational,
    is_mersenne_prime_exponent,
    mobius,
    naive_height,
    parse_rational,
)
from .polynomials import Poly, format_bipoly, format_poly, parse_poly
from .factorq import Factorization, factor_over_q
from .numberfield import (
    AlgElement,
    QuadraticElement,
    QuotientAlgebra,
    apply_phi,
    as_quadratic,
    minimal_polynomial,
    subfield_degree,
)
from .maps import (
    MapSpec,
    dynatomic_degree,
    dynatomic_poly,
    dynatomic_poly_generic,
    verify_product_identity,
)
from .cycles import (
    CycleRecord,
    cycles_from_dynatomic,
    quadratic_cycles,
)
from .property_a import (
    PointVerdict,
    PropertyAReport,
    check_aggregate,
    check_point,
    check_quadratic_cycle,
    trace_test,
)

__version__ = "0.1.0"

__all__ = [
    "AlgElement",
    "CycleRecord",
    "Factorization",
    "MapSpec",
    "PointVerdict",
    "Poly",
    "PropertyAReport",
    "QuadraticElement",
    "QuotientAlgebra",
    "apply_phi",
    "as_quadratic",
    "check_aggregate",
    "check_point",
    "check_quadratic_cycle",
    "cycles_from_dynatomic",
    "divisors",
    "dynatomic_degree",
    "dynatomic_poly",
    "dynatomic_poly_generic",
    "enumerate_rationals_by_height",
    "factor_over_q",
    "format_bipoly",
    "format_poly",
    "format_rational",
    "is_mersenne_prime_exponent",
    "minimal_polynomial",
    "mobius",
    "naive_height",
    "parse_poly",
    "parse_rational",
    "quadratic_cycles",
    "subfield_degree",
    "trace_test",
    "verify_product_identity",
]
