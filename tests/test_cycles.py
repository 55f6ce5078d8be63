from fractions import Fraction

import pytest

from dynatomic.cycles import (
    CycleRecord,
    cycles_from_dynatomic,
    orbit_in_algebra,
    quadratic_cycles,
    rational_cycles,
)
from dynatomic.errors import NonPeriodicError
from dynatomic.maps import MapSpec, dynatomic_degree
from dynatomic.numberfield import QuadraticElement, apply_phi
from dynatomic.polynomials import Poly
from dynatomic.rationals import enumerate_rationals_by_height
from _oracles import symmetric_functions

Z = Poly.identity()
CYCLO7 = Poly([1] * 7)


def assert_orbit_invariants(rec: CycleRecord, spec: MapSpec):
    # applying the map walks the orbit cyclically
    for i, el in enumerate(rec.orbit):
        assert apply_phi(el, spec.d, spec.c) == rec.orbit[(i + 1) % rec.exact_period]
    assert len(set(rec.orbit)) == len(rec.orbit)
    # e_1 equals the trace equals the orbit sum
    total = rec.orbit[0].parent.zero()
    for el in rec.orbit:
        total = total + el
    assert rec.trace == total == symmetric_functions(rec.orbit)[0]


class TestOrbitInAlgebra:
    def test_quadratic_two_cycle(self):
        spec = MapSpec(2, Fraction(1))
        rec = orbit_in_algebra(Z**2 + Z + 2, spec)
        assert rec.exact_period == 2
        assert [el.representative for el in rec.orbit] == [Z, -Z - 1]
        e1, e2 = symmetric_functions(rec.orbit)
        assert e1.as_rational() == -1
        assert e2.as_rational() == 2
        assert_orbit_invariants(rec, spec)

    def test_cyclotomic_three_cycle(self):
        spec = MapSpec(2, Fraction(0))
        rec = orbit_in_algebra(CYCLO7, spec)
        assert rec.exact_period == 3
        assert [el.representative for el in rec.orbit] == [Z, Z**2, Z**4]
        assert_orbit_invariants(rec, spec)

    def test_fixed_point(self):
        rec = orbit_in_algebra(Z + Fraction(1, 2), MapSpec(2, Fraction(-3, 4)))
        assert rec.exact_period == 1
        assert rec.orbit[0].as_rational() == Fraction(-1, 2)

    def test_non_periodic_root_raises(self):
        # 5 escapes under z^2; the escape guard fires before values blow up
        with pytest.raises(NonPeriodicError):
            orbit_in_algebra(Z - 5, MapSpec(2, Fraction(0)))

    def test_two_fixed_points_stay_separate(self):
        spec = MapSpec(2, Fraction(0))
        records = cycles_from_dynatomic(spec, 1)
        assert len(records) == 2
        assert {rec.rational_orbit()[0] for rec in records} == {Fraction(0), Fraction(1)}
        assert all(len(rec.merged_factors) == 1 for rec in records)


class TestCyclesFromDynatomic:
    def test_rational_two_cycle(self):
        spec = MapSpec(2, Fraction(-1))
        records = cycles_from_dynatomic(spec, 2)
        assert len(records) == 1
        rec = records[0]
        assert rec.field_degree == 1
        assert rec.exact_period == 2
        assert set(rec.rational_orbit()) == {Fraction(0), Fraction(-1)}
        assert_orbit_invariants(rec, spec)

    def test_rational_three_cycle(self):
        spec = MapSpec(2, Fraction(-29, 16))
        records = cycles_from_dynatomic(spec, 3)
        rational = [r for r in records if r.field_degree == 1]
        assert len(rational) == 1
        assert set(rational[0].rational_orbit()) == {
            Fraction(-1, 4),
            Fraction(-7, 4),
            Fraction(5, 4),
        }
        # the three linear factors belong to one cycle
        assert len(rational[0].merged_factors) == 3

    def test_degenerate_double_root(self):
        records = cycles_from_dynatomic(MapSpec(2, Fraction(-3, 4)), 2)
        assert len(records) == 1
        rec = records[0]
        assert rec.exact_period == 1
        assert rec.degenerate
        assert rec.multiplicity == 2
        assert rec.rational_orbit() == [Fraction(-1, 2)]

    def test_root_count_bookkeeping(self):
        for c, n in ((Fraction(-1), 2), (Fraction(-29, 16), 3), (Fraction(0), 4)):
            spec = MapSpec(2, c)
            records = cycles_from_dynatomic(spec, n)
            total = sum(
                f.degree() * rec.multiplicity
                for rec in records
                for f in rec.merged_factors
            )
            assert total == dynatomic_degree(2, n)

    def test_period_divides_n(self):
        for c in (Fraction(-3, 4), Fraction(0), Fraction(1, 4), Fraction(-2)):
            for n in (2, 3, 4):
                for rec in cycles_from_dynatomic(MapSpec(2, c), n):
                    assert n % rec.exact_period == 0


class TestRationalCycles:
    def test_minus_one(self):
        recs = rational_cycles(MapSpec(2, Fraction(-1)), 2)
        assert len(recs) == 1 and set(recs[0].rational_orbit()) == {Fraction(0), Fraction(-1)}

    def test_cyclotomic_has_none(self):
        assert rational_cycles(MapSpec(2, Fraction(0)), 3) == []

    def test_three_cycle(self):
        recs = rational_cycles(MapSpec(2, Fraction(-29, 16)), 3)
        assert len(recs) == 1

    def test_degenerate_not_counted(self):
        assert rational_cycles(MapSpec(2, Fraction(-3, 4)), 2) == []


class TestQuadraticCycles:
    def test_six_cycle_parameter(self):
        spec = MapSpec(2, Fraction(-71, 48))
        records = quadratic_cycles(spec, 6)
        assert len(records) == 1
        rec = records[0]
        assert rec.discriminant == 33
        assert rec.exact_period == 6
        assert len(rec.merged_factors) == 3
        z0 = QuadraticElement(33, Fraction(-1), Fraction(1, 12))
        z1 = QuadraticElement(33, Fraction(-1, 4), Fraction(-1, 6))
        z2 = QuadraticElement(33, Fraction(-1, 2), Fraction(1, 12))
        expected = {z0, z1, z2, z0.conjugate(), z1.conjugate(), z2.conjugate()}
        assert set(rec.quadratic_points or ()) == expected
        assert_orbit_invariants(rec, spec)

    def test_two_cycle_in_imaginary_field(self):
        records = quadratic_cycles(MapSpec(2, Fraction(1)), 2)
        assert len(records) == 1
        rec = records[0]
        assert rec.discriminant == -7
        assert set(rec.quadratic_points or ()) == {
            QuadraticElement(-7, Fraction(-1, 2), Fraction(1, 2)),
            QuadraticElement(-7, Fraction(-1, 2), Fraction(-1, 2)),
        }

    def test_cyclotomic_has_none(self):
        assert quadratic_cycles(MapSpec(2, Fraction(0)), 3) == []

    def test_conjugation_equivariance(self):
        # conjugating a quadratic cycle permutes the same point set (N even here)
        for c, n in ((Fraction(1), 2), (Fraction(-71, 48), 6)):
            for rec in quadratic_cycles(MapSpec(2, c), n):
                points = set(rec.quadratic_points or ())
                assert {p.conjugate() for p in points} == points


class TestTwoCycleUniqueness:
    def test_at_most_one_two_cycle_small_heights(self):
        # degree of the period-2 dynatomic polynomial forces this; checked exactly
        for c in enumerate_rationals_by_height(6):
            records = cycles_from_dynatomic(MapSpec(2, c), 2)
            exact = [r for r in records if r.exact_period == 2]
            assert len(exact) <= 1


class TestSerialization:
    def test_json_fields(self):
        rec = quadratic_cycles(MapSpec(2, Fraction(1)), 2)[0]
        data = rec.to_json_dict()
        assert data == {
            "d": 2,
            "c": "1",
            "N": 2,
            "exact_period": 2,
            "field_degree": 2,
            "discriminant": -7,
            "points": ["-1/2 + 1/2*sqrt(-7)", "-1/2 - 1/2*sqrt(-7)"],
            "trace": "-1",
        }

    def test_irrational_trace_serialized_as_polynomial(self):
        rec = cycles_from_dynatomic(MapSpec(2, Fraction(0)), 3)[0]
        data = rec.to_json_dict()
        assert data["field_degree"] == 6
        assert data["trace"] == "z^4 + z^2 + z"
