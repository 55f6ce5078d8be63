from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynatomic.cycles import (
    CycleRecord,
    _build_record,
    _merge_records,
    cycles_from_dynatomic,
    orbit_in_algebra,
    quadratic_cycles,
)
from dynatomic.errors import ConsistencyError, DegreeGuardError
from dynatomic.factorq import factor_over_q, is_irreducible
from dynatomic.maps import MapSpec, dynatomic_degree, dynatomic_poly
from dynatomic.numberfield import QuotientAlgebra, subfield_degree
from dynatomic.polynomials import Poly
from dynatomic.property_a import (
    EXCLUDE_RATIONAL,
    FAILS,
    HOLDS,
    RATIONAL_FALSIFIES,
    VACUOUS,
    check_aggregate,
    check_point,
    check_quadratic_cycle,
    trace_test,
)
from dynatomic.rationals import enumerate_rationals_by_height
from _oracles import owner_search_merge, symmetric_functions

Z = Poly.identity()


def synthetic_quadratic_record(modulus: Poly, orbit_reps, period: int, spec: MapSpec):
    """Hand-built record for exercising single checks on constructed data."""
    algebra = QuotientAlgebra(modulus)
    orbit = tuple(algebra.element(rep) for rep in orbit_reps)
    total = algebra.zero()
    for el in orbit:
        total = total + el
    return CycleRecord(
        spec=spec,
        n_requested=period,
        factor=algebra.modulus,
        multiplicity=1,
        field_degree=algebra.degree,
        exact_period=period,
        orbit=orbit,
        trace=total,
        merged_factors=(algebra.modulus,),
        quadratic_points=None,
    )


class TestCheckPoint:
    def test_quadratic_two_cycle(self):
        rec = quadratic_cycles(MapSpec(2, Fraction(1)), 2)[0]
        verdict = check_point(rec)
        assert (verdict.field_degree, verdict.orbit_field_degree) == (2, 1)
        assert verdict.holds
        assert verdict.method == "degree-comparison"

    def test_cyclotomic_three_cycle(self):
        rec = cycles_from_dynatomic(MapSpec(2, Fraction(0)), 3)[0]
        verdict = check_point(rec)
        assert (verdict.field_degree, verdict.orbit_field_degree) == (6, 2)
        assert verdict.holds

    def test_six_cycle(self):
        rec = quadratic_cycles(MapSpec(2, Fraction(-71, 48)), 6)[0]
        verdict = check_point(rec)
        assert (verdict.field_degree, verdict.orbit_field_degree) == (2, 1)
        assert verdict.holds

    def test_rejects_rational_records(self):
        rec = cycles_from_dynatomic(MapSpec(2, Fraction(-1)), 2)[0]
        with pytest.raises(ValueError):
            check_point(rec)

    def test_rejects_degenerate_records(self):
        rec = cycles_from_dynatomic(MapSpec(2, Fraction(-3, 4)), 2)[0]
        with pytest.raises(ValueError):
            check_point(rec, 2)

    def test_divisibility_invariant(self):
        for c in (Fraction(1), Fraction(0), Fraction(-2), Fraction(3, 2)):
            for n in (2, 3, 4):
                for rec in cycles_from_dynatomic(MapSpec(2, c), n):
                    if rec.field_degree >= 2 and rec.exact_period == n:
                        v = check_point(rec, n)
                        assert v.field_degree % v.orbit_field_degree == 0
                        assert v.holds == (v.field_degree > v.orbit_field_degree)


def nonrational_exact(spec: MapSpec, n: int) -> list[CycleRecord]:
    return [
        rec
        for rec in cycles_from_dynatomic(spec, n)
        if rec.field_degree >= 2 and rec.exact_period == n
    ]


def assert_count_matches_span(records, n):
    for rec in records:
        assert check_point(rec, n).orbit_field_degree == subfield_degree(
            symmetric_functions(rec.orbit)
        )


class TestConjugateCycleCount:
    """D0 = m*D/N agrees with the span computation of the orbit field.

    `check_point` itself cross-checks the count against the cycle's
    stabiliser; the span computation here is the independent oracle.
    """

    def test_small_grid(self):
        checked = 0
        for d, periods, max_height in ((2, (2, 3, 4), 4), (3, (2, 3), 3)):
            for c in enumerate_rationals_by_height(max_height):
                for n in periods:
                    records = nonrational_exact(MapSpec(d, c), n)
                    assert_count_matches_span(records, n)
                    checked += len(records)
        assert checked == 104

    @pytest.mark.parametrize(
        "d, c, n",
        [
            (2, Fraction(0), 6),
            (2, Fraction(-2), 6),
            (3, Fraction(0), 4),
            (2, Fraction(-2), 7),
        ],
    )
    def test_named_cells(self, d, c, n):
        assert_count_matches_span(nonrational_exact(MapSpec(d, c), n), n)

    def test_multiplicity_two(self):
        (rec,) = nonrational_exact(MapSpec(2, Fraction(-7, 4)), 3)
        assert (rec.multiplicity, rec.field_degree) == (2, 3)
        assert check_point(rec).orbit_field_degree == 1
        assert_count_matches_span([rec], 3)

    def test_merged_six_cycle(self):
        rec = quadratic_cycles(MapSpec(2, Fraction(-71, 48)), 6)[0]
        assert len(rec.merged_factors) == 3
        assert_count_matches_span([rec], 6)

    def test_count_not_divisible_by_period(self):
        # m*D = 2 points cannot split into 3-cycles
        rec = synthetic_quadratic_record(
            Z**2 - 2, [Z, Z + 1, Z + 2], period=3, spec=MapSpec(2, Fraction(1))
        )
        with pytest.raises(ConsistencyError):
            check_point(rec)

    def test_wrong_merge_caught_by_stabiliser(self):
        records = nonrational_exact(MapSpec(2, Fraction(0)), 4)
        (rec,) = [r for r in records if r.field_degree == 8]
        doubled = replace(rec, merged_factors=rec.merged_factors * 2)
        with pytest.raises(ConsistencyError):
            check_point(doubled)

    def test_wrong_quadratic_merge_caught_by_stabiliser(self):
        # D = 2 records are cross-checked too, without the aggregate's fast path
        (rec,) = quadratic_cycles(MapSpec(2, Fraction(1)), 2)
        doubled = replace(rec, merged_factors=rec.merged_factors * 2)
        with pytest.raises(ConsistencyError):
            check_point(doubled)

    def test_unmerged_record_rejected(self):
        spec = MapSpec(2, Fraction(-71, 48))
        factor = quadratic_cycles(spec, 6)[0].merged_factors[0]
        with pytest.raises(ConsistencyError):
            check_point(orbit_in_algebra(factor, spec))

    @settings(max_examples=40, deadline=None)
    @given(
        num=st.integers(-12, 12),
        den=st.integers(1, 12),
        d=st.sampled_from((2, 3)),
        n=st.sampled_from((2, 3)),
    )
    def test_cycle_invariants(self, num, den, d, n):
        records = cycles_from_dynatomic(MapSpec(d, Fraction(num, den)), n)
        assert sum(
            f.degree() * rec.multiplicity for rec in records for f in rec.merged_factors
        ) == dynatomic_degree(d, n)
        exact = [rec for rec in records if rec.exact_period == n]
        for rec in exact:
            assert (len(rec.merged_factors) * rec.field_degree) % n == 0
        assert_count_matches_span([rec for rec in exact if rec.field_degree >= 2], n)


def unmerged_records(spec: MapSpec, n: int) -> list[CycleRecord]:
    return [
        _build_record(factor.monic(), mult, spec, n, max_steps=n)
        for factor, mult in factor_over_q(dynatomic_poly(spec, n)).factors
    ]


class TestOrbitWalkMerge:
    """The merge's orbit walk groups factors as the owner search did."""

    def test_matches_owner_search(self):
        cells = [
            (MapSpec(d, c), n)
            for d, periods, max_height in ((2, range(2, 7), 4), (3, range(2, 5), 2))
            for c in enumerate_rationals_by_height(max_height)
            for n in periods
        ]
        cells.append((MapSpec(2, Fraction(-71, 48)), 6))  # three quadratic factors, k = 3
        sizes = []
        for spec, n in cells:
            records = unmerged_records(spec, n)
            walked = _merge_records(records)
            assert walked == owner_search_merge(records)
            sizes.extend(len(rec.merged_factors) for rec in walked)
        assert max(sizes) == 3


class TestCheckQuadraticCycle:
    def test_six_cycle_half_iterate(self):
        rec = quadratic_cycles(MapSpec(2, Fraction(-71, 48)), 6)[0]
        assert check_quadratic_cycle(rec) is True

    def test_two_cycle(self):
        rec = quadratic_cycles(MapSpec(2, Fraction(1)), 2)[0]
        assert check_quadratic_cycle(rec) is True

    def test_odd_period_always_false(self):
        # constructed quadratic data with odd period: parity alone decides
        spec = MapSpec(2, Fraction(1))
        rec = synthetic_quadratic_record(
            Z**2 - 2, [Z, Z + 1, Z + 2], period=3, spec=spec
        )
        assert check_quadratic_cycle(rec) is False

    def test_rejects_non_quadratic(self):
        rec = cycles_from_dynatomic(MapSpec(2, Fraction(0)), 3)[0]
        with pytest.raises(ValueError):
            check_quadratic_cycle(rec)


class TestTraceTest:
    def test_six_cycle_trace_rational(self):
        rec = quadratic_cycles(MapSpec(2, Fraction(-71, 48)), 6)[0]
        assert trace_test(rec)
        assert rec.trace.as_rational() == Fraction(-7, 2)

    def test_two_cycle_trace(self):
        rec = quadratic_cycles(MapSpec(2, Fraction(1)), 2)[0]
        assert trace_test(rec)
        assert rec.trace.as_rational() == -1

    def test_constructed_irrational_trace(self):
        spec = MapSpec(2, Fraction(0))
        rec = synthetic_quadratic_record(Z**2 - 2, [Z, -Z + 1], period=2, spec=spec)
        # trace = sqrt(2) + (1 - sqrt(2)) = 1 is rational; rebuild with sqrt(2) trace
        algebra = rec.orbit[0].parent
        rec = CycleRecord(
            spec=spec,
            n_requested=2,
            factor=algebra.modulus,
            multiplicity=1,
            field_degree=2,
            exact_period=2,
            orbit=rec.orbit,
            trace=algebra.generator(),
            merged_factors=(algebra.modulus,),
            quadratic_points=None,
        )
        assert not trace_test(rec)


class TestIrreducibilitySufficient:
    """For d = 2 an irreducible dynatomic polynomial is sufficient for the
    aggregate to hold; a reducible one decides nothing by itself."""

    def test_cyclotomic_case(self):
        spec = MapSpec(2, Fraction(0))
        assert is_irreducible(dynatomic_poly(spec, 3)) is True
        report = check_aggregate(spec, 3)
        assert report.factor_degrees == (6,)
        assert report.aggregate == HOLDS

    def test_mersenne_composite_case(self):
        spec = MapSpec(2, Fraction(0))
        assert is_irreducible(dynatomic_poly(spec, 4)) is False
        report = check_aggregate(spec, 4)
        assert report.factor_degrees == (4, 8)
        assert report.aggregate == HOLDS


@pytest.fixture(scope="module")
def six_cycle_report():
    """d=2 N=6 c=-71/48, computed once for the tests that read it."""
    return check_aggregate(MapSpec(2, Fraction(-71, 48)), 6)


class TestCheckAggregate:
    def test_six_cycle_holds(self, six_cycle_report):
        report = six_cycle_report
        assert report.aggregate == HOLDS
        assert report.factor_degrees == (2, 2, 2, 48)
        quadratic = [v for v in report.verdicts if v.field_degree == 2]
        assert len(quadratic) == 1
        assert quadratic[0].orbit_field_degree == 1

    def test_double_root_vacuous(self):
        report = check_aggregate(MapSpec(2, Fraction(-3, 4)), 2)
        assert report.aggregate == VACUOUS
        assert len(report.degenerate) == 1
        assert report.verdicts == ()

    def test_cyclotomic_holds(self):
        report = check_aggregate(MapSpec(2, Fraction(0)), 3)
        assert report.aggregate == HOLDS
        assert report.verdicts[0].orbit_field_degree == 2

    def test_rational_cycle_excluded_by_default(self):
        report = check_aggregate(MapSpec(2, Fraction(-1)), 2)
        assert report.aggregate == HOLDS
        assert report.rational_points == (Fraction(-1), Fraction(0))
        assert report.interpretation == EXCLUDE_RATIONAL

    def test_rational_cycle_falsifies_under_literal_reading(self):
        report = check_aggregate(MapSpec(2, Fraction(-1)), 2, include_rational=True)
        assert report.aggregate == FAILS
        assert report.interpretation == RATIONAL_FALSIFIES

    def test_literal_reading_without_rational_points_unchanged(self):
        default = check_aggregate(MapSpec(2, Fraction(1)), 2)
        literal = check_aggregate(MapSpec(2, Fraction(1)), 2, include_rational=True)
        assert default.aggregate == literal.aggregate == HOLDS

    def test_irreducible_period_eight(self):
        # the N = 8 frontier: Phi_8 is irreducible of degree 240 at c = 1/3
        report = check_aggregate(MapSpec(2, Fraction(1, 3)), 8)
        assert report.aggregate == HOLDS
        assert report.factor_degrees == (240,)
        assert [(v.field_degree, v.orbit_field_degree) for v in report.verdicts] == [
            (240, 30)
        ]

    def test_degree_guard(self):
        with pytest.raises(DegreeGuardError):
            check_aggregate(MapSpec(2, Fraction(0)), 13)

    def test_rejects_period_one(self):
        with pytest.raises(ValueError):
            check_aggregate(MapSpec(2, Fraction(0)), 1)

    def test_json_schema(self, six_cycle_report):
        data = six_cycle_report.to_json_dict()
        assert set(data.keys()) == {
            "d",
            "N",
            "c",
            "height",
            "phi_degree",
            "factor_degrees",
            "rational_points",
            "degenerate_count",
            "verdicts",
            "aggregate",
            "interpretation",
        }
        assert data["height"] == 71
        assert data["verdicts"][0].keys() == {"factor_degree", "D0", "holds", "method"}


class TestConsistencySweep:
    def test_small_heights_consistent(self):
        # the aggregate itself raises ConsistencyError on any method disagreement
        for c in enumerate_rationals_by_height(4):
            for n in (2, 4):
                report = check_aggregate(MapSpec(2, c), n)
                assert report.aggregate in (HOLDS, FAILS, VACUOUS)
                for rec in report.records:
                    if rec.field_degree == 2 and rec.exact_period == n:
                        assert check_point(rec, n).holds == check_quadratic_cycle(rec, n)

    def test_period_two_always_holds_or_vacuous(self):
        for c in enumerate_rationals_by_height(6):
            report = check_aggregate(MapSpec(2, c), 2)
            assert report.aggregate in (HOLDS, VACUOUS)

    def test_no_quadratic_five_cycles_where_verdict_holds(self):
        for c in (Fraction(1), Fraction(-2)):
            spec = MapSpec(2, c)
            if check_aggregate(spec, 5).aggregate == HOLDS:
                assert quadratic_cycles(spec, 5) == []
