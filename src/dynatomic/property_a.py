"""Per-point and per-parameter decisions of the Galois orbit criterion.

For a nonrational periodic point x of exact period N, the criterion holds
exactly when the cycle field Q(x), of degree D, is strictly larger than the
orbit field Q(e_1..e_N) generated by the symmetric functions of the cycle, of
degree D0.  The extension Q(x)/Q(e_1..e_N) is always normal (every conjugate
of x over the orbit field is a forward image of x, hence lies in Q(x)), so
the decision reduces to the degree comparison D > D0.

D0 is found by counting.  Galois conjugation commutes with z^d + c, so the
m merged factors of a record hold m*D distinct conjugate points that split
into m*D/N conjugate N-cycles; the orbit field is the fixed field of the
stabiliser of one cycle, so D0 = m*D/N.  Every nonrational verdict carries
exactly one independent cross-check, and a disagreement raises:

1. Phi_N irreducible (m = 1, multiplicity 1, D = deg Phi_N): one factor is
   one conjugate orbit of cycles, so the count is a proof; for d = 2 the
   aggregate also checks that irreducibility forces a holding verdict.
2. Any other record: the cycle's stabiliser.  A Galois element moves x to
   some phi^i(x) (Vivaldi and Hatjispyros, Nonlinearity 5, 1992); the i with
   phi^i(x) a root of the record's factor form a subgroup kZ/NZ, so
   D/D0 = N/k.  k comes from Horner root tests at the orbit elements, apart
   from the minimal polynomials that gave the merge its m.  For D = 2 the
   aggregate adds the quadratic fast path -- for even N the half-way iterate
   must equal the field conjugate of the start, for odd N no nonrational
   quadratic point can comply -- and the trace test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cycles import CycleRecord, cycles_from_dynatomic
from .errors import ConsistencyError
from .maps import MapSpec, dynatomic_degree
# Re-exported, not called: perfbench/inproc.py wraps subfield_degree here and
# tests/test_package.py::test_benchmark_trace_hooks_resolve runs that hook.
from .numberfield import subfield_degree  # noqa: F401
from .polynomials import Poly
from .rationals import divisors, format_rational, naive_height

EXCLUDE_RATIONAL = "exclude-rational"
RATIONAL_FALSIFIES = "rational-falsifies"

HOLDS = "holds"
FAILS = "fails"
VACUOUS = "vacuous"


@dataclass(frozen=True)
class PointVerdict:
    """Decision for one nonrational cycle record via the degree comparison."""

    factor: Poly
    field_degree: int
    orbit_field_degree: int
    holds: bool
    method: str = "degree-comparison"

    def to_json_dict(self) -> dict:
        return {
            "factor_degree": self.field_degree,
            "D0": self.orbit_field_degree,
            "holds": self.holds,
            "method": self.method,
        }


def _is_whole_phi(record: CycleRecord, n: int) -> bool:
    """True iff the record is all of Phi_n, which is then irreducible."""
    return (
        len(record.merged_factors) == 1
        and record.multiplicity == 1
        and record.field_degree == dynatomic_degree(record.spec.d, n)
    )


def check_point(record: CycleRecord, n: int | None = None) -> PointVerdict:
    """Degree comparison D > D0 for a nonrational record of exact period n.

    D0 = m*D/n counts the conjugate n-cycles among the m*D roots of the
    record's m merged factors, so the record must come from
    `cycles_from_dynatomic`: an unmerged record undercounts its cycles.
    Unless the record is all of Phi_n (irreducible; the count is then a
    proof), the cycle's stabiliser gives D0 = k*D/n a second time, with k
    from root tests of the factor at the orbit elements.  A count that is not
    an integer, does not divide D, or disagrees raises ConsistencyError.
    """
    if record.field_degree < 2:
        raise ValueError("rational points are handled at the aggregate level")
    n = record.n_requested if n is None else n
    if record.exact_period != n:
        raise ValueError(
            f"record has exact period {record.exact_period}, expected {n}"
        )
    d_cycle = record.field_degree
    conjugates = len(record.merged_factors) * d_cycle
    if conjugates % n:
        raise ConsistencyError(
            f"{conjugates} conjugate points do not split into {n}-cycles"
        )
    d_orbit = conjugates // n
    if d_cycle % d_orbit:
        raise ConsistencyError(
            f"orbit field degree {d_orbit} does not divide cycle field degree {d_cycle}"
        )
    if not _is_whole_phi(record, n):
        # the least k | n with phi^k(z) a root; phi^n(z) = z needs no test
        k = next((i for i in divisors(n)[:-1] if record.factor(record.orbit[i]) == 0), n)
        if k * d_cycle != conjugates:
            raise ConsistencyError(
                f"cycle count gives D0 = {d_orbit} but the cycle's stabiliser "
                f"gives D0 = {Fraction(k * d_cycle, n)}"
            )
    return PointVerdict(
        factor=record.factor,
        field_degree=d_cycle,
        orbit_field_degree=d_orbit,
        holds=d_cycle > d_orbit,
    )


def check_quadratic_cycle(record: CycleRecord, n: int | None = None) -> bool:
    """Quadratic fast path: phi^(N/2)(z) must be the field conjugate of z.

    A nontrivial Galois element of a quadratic field has order 2, forcing the
    matching iterate to be the half-period one; odd periods leave only the
    identity, so they can never comply.
    """
    if record.field_degree != 2:
        raise ValueError("fast path applies to quadratic records only")
    n = record.exact_period if n is None else n
    if record.exact_period != n:
        raise ValueError(
            f"record has exact period {record.exact_period}, expected {n}"
        )
    if n % 2:
        return False
    start = record.orbit[0]
    halfway = record.orbit[n // 2]
    # conjugation in Q[z]/(z^2 + p z + q): gen -> -p - gen
    rep = start.representative
    p1 = record.factor.coefficient(1)
    conjugate = record.orbit[0].parent.element(
        Poly([rep.coefficient(0) - rep.coefficient(1) * p1, -rep.coefficient(1)])
    )
    return halfway == conjugate


def trace_test(record: CycleRecord) -> bool:
    """True iff the cycle trace (= e_1) is rational."""
    return record.trace.is_rational()


@dataclass(frozen=True)
class PropertyAReport:
    """Aggregate verdict for one (d, c, N) with the data that justifies it."""

    spec: MapSpec
    n: int
    phi_degree: int
    factor_degrees: tuple[int, ...]
    verdicts: tuple[PointVerdict, ...]
    rational_points: tuple[Fraction, ...]
    degenerate: tuple[CycleRecord, ...]
    records: tuple[CycleRecord, ...]
    aggregate: str
    interpretation: str

    def to_json_dict(self) -> dict:
        return {
            "d": self.spec.d,
            "N": self.n,
            "c": format_rational(self.spec.c),
            "height": naive_height(self.spec.c),
            "phi_degree": self.phi_degree,
            "factor_degrees": list(self.factor_degrees),
            "rational_points": [format_rational(q) for q in self.rational_points],
            "degenerate_count": len(self.degenerate),
            "verdicts": [v.to_json_dict() for v in self.verdicts],
            "aggregate": self.aggregate,
            "interpretation": self.interpretation,
        }


def check_aggregate(
    spec: MapSpec, n: int, include_rational: bool = False
) -> PropertyAReport:
    """Run the whole pipeline for (d, c, N) and aggregate per-point verdicts.

    Vacuous means no point of exact period N exists at all.  By default,
    rational exact-period points are reported but excluded from the
    quantification; with include_rational they falsify the aggregate (the
    literal reading, under which a fixed rational point can never have a
    nontrivial Galois image).
    """
    if n < 2:
        raise ValueError(f"period must be >= 2, got {n}")
    records = cycles_from_dynatomic(spec, n)
    exact = [rec for rec in records if rec.exact_period == n]
    degenerate = [rec for rec in records if rec.exact_period < n]

    rational_points: list[Fraction] = []
    for rec in exact:
        if rec.field_degree == 1:
            rational_points.extend(rec.rational_orbit())
    rational_points.sort()

    verdicts: list[PointVerdict] = []
    for rec in exact:
        if rec.field_degree < 2:
            continue
        verdict = check_point(rec, n)
        if rec.field_degree == 2:
            fast = check_quadratic_cycle(rec, n)
            if fast != verdict.holds:
                raise ConsistencyError(
                    f"degree comparison ({verdict.holds}) and quadratic fast path "
                    f"({fast}) disagree at d={spec.d}, c={spec.c}, N={n}"
                )
            if verdict.holds and not trace_test(rec):
                raise ConsistencyError(
                    f"holding quadratic cycle with irrational trace at "
                    f"d={spec.d}, c={spec.c}, N={n}"
                )
        verdicts.append(verdict)

    if not exact:
        aggregate = VACUOUS
    elif include_rational and rational_points:
        aggregate = FAILS
    elif all(v.holds for v in verdicts):
        aggregate = HOLDS
    else:
        aggregate = FAILS

    factor_degrees: list[int] = []
    for rec in records:
        for factor in rec.merged_factors:
            factor_degrees.extend([factor.degree()] * rec.multiplicity)
    factor_degrees.sort()

    phi_degree = dynatomic_degree(spec.d, n)
    if sum(factor_degrees) != phi_degree:
        raise ConsistencyError(
            f"factor degrees {factor_degrees} do not sum to {phi_degree}"
        )

    # cross-validate the irreducibility sufficient condition for d = 2
    if (
        spec.d == 2
        and not include_rational
        and len(records) == 1
        and _is_whole_phi(records[0], n)
        and aggregate != HOLDS
    ):
        raise ConsistencyError(
            f"dynatomic polynomial is irreducible at d=2, c={spec.c}, N={n} "
            f"but the aggregate came out {aggregate}"
        )

    return PropertyAReport(
        spec=spec,
        n=n,
        phi_degree=phi_degree,
        factor_degrees=tuple(factor_degrees),
        verdicts=tuple(verdicts),
        rational_points=tuple(rational_points),
        degenerate=tuple(degenerate),
        records=tuple(records),
        aggregate=aggregate,
        interpretation=RATIONAL_FALSIFIES if include_rational else EXCLUDE_RATIONAL,
    )
