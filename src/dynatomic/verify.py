"""Verification corpus: every desk-checkable claim, reproduced exactly.

Each item recomputes one family of expectations from scratch through the
public pipeline and compares with zero tolerance.  Expensive report batches
(the height-ordered sweeps) are computed once per corpus run and shared
between items; they run through the scan's `map_cells` engine, so jobs > 1
computes them in parallel with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .cycles import quadratic_cycles
from .errors import ConsistencyError
from .factorq import factor_over_q
from .maps import MapSpec, dynatomic_degree, dynatomic_poly, verify_product_identity
from .numberfield import QuadraticElement
from .property_a import (
    FAILS,
    HOLDS,
    PropertyAReport,
    check_aggregate,
    check_point,
    check_quadratic_cycle,
    trace_test,
)
from .rationals import (
    enumerate_rationals_by_height,
    format_rational,
    is_mersenne_prime_exponent,
    smallest_prime_factor,
)
from .scan import map_cells


@dataclass(frozen=True)
class ItemResult:
    name: str
    passed: bool
    details: tuple[str, ...]

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        out = [f"{status} {self.name}"]
        out.extend(f"  {line}" for line in self.details)
        return out


def _report_cell(key: tuple[int, Fraction, int]) -> tuple[tuple, PropertyAReport]:
    d, c, n = key
    return key, check_aggregate(MapSpec(d, c), n)


class CorpusContext:
    """Caches aggregate reports shared by several corpus items, keyed by (d, c, N)."""

    def __init__(self, jobs: int = 1):
        self.jobs = jobs
        self._reports: dict[tuple[int, Fraction, int], PropertyAReport] = {}

    def sweep(self, d: int, n: int, max_height: int) -> list[tuple[Fraction, PropertyAReport]]:
        cs = list(enumerate_rationals_by_height(max_height))
        missing = [(d, c, n) for c in cs if (d, c, n) not in self._reports]
        if missing:
            self._reports.update(map_cells(_report_cell, missing, self.jobs))
        return [(c, self._reports[(d, c, n)]) for c in cs]


def _check(conditions: Iterable[tuple[bool, str]]) -> tuple[bool, list[str]]:
    passed = True
    details = []
    for ok, message in conditions:
        details.append(("ok: " if ok else "MISMATCH: ") + message)
        passed = passed and ok
    return passed, details


# -- items -------------------------------------------------------------------


def item_six_cycle(ctx: CorpusContext) -> ItemResult:
    """The unique quadratic 6-cycle at c = -71/48, point by point."""
    c = Fraction(-71, 48)
    spec = MapSpec(2, c)
    records = quadratic_cycles(spec, 6)
    conditions = [(len(records) == 1, f"exactly one quadratic 6-cycle (got {len(records)})")]
    if len(records) == 1:
        rec = records[0]
        z0 = QuadraticElement(33, Fraction(-1), Fraction(1, 12))
        z1 = QuadraticElement(33, Fraction(-1, 4), Fraction(-1, 6))
        z2 = QuadraticElement(33, Fraction(-1, 2), Fraction(1, 12))
        expected = {z0, z1, z2, z0.conjugate(), z1.conjugate(), z2.conjugate()}
        points = list(rec.quadratic_points or ())
        succ_ok = all(
            points[i].apply_phi(2, c) == points[(i + 1) % 6] for i in range(6)
        )
        half_conj_ok = all(points[i].conjugate() == points[(i + 3) % 6] for i in range(6))
        verdict = check_point(rec)
        conditions.extend(
            [
                (rec.discriminant == 33, f"cycle lives in Q(sqrt(33)) (got sqrt({rec.discriminant}))"),
                (rec.exact_period == 6, f"exact period 6 (got {rec.exact_period})"),
                (set(points) == expected, "points equal the six expected values exactly"),
                (succ_ok, "each point maps to the next under z^2 + c"),
                (half_conj_ok, "the half-way iterate is the field conjugate"),
                (check_quadratic_cycle(rec), "quadratic fast path confirms the cycle"),
                (
                    verdict.holds and (verdict.field_degree, verdict.orbit_field_degree) == (2, 1),
                    f"degree comparison holds with (D, D0) = "
                    f"({verdict.field_degree}, {verdict.orbit_field_degree})",
                ),
                (
                    rec.trace.is_rational() and rec.trace.as_rational() == Fraction(-7, 2),
                    "trace equals -7/2",
                ),
            ]
        )
    passed, details = _check(conditions)
    return ItemResult("six-cycle", passed, tuple(details))


def item_reducible_at_minus_two(ctx: CorpusContext) -> ItemResult:
    """Dynatomic polynomials at c = -2 factor nontrivially for N = 3..6."""
    conditions = []
    for n in (3, 4, 5, 6):
        fac = factor_over_q(dynatomic_poly(MapSpec(2, Fraction(-2)), n))
        degs = [f.degree() for f, _ in fac.factors]
        conditions.append(
            (len(fac.factors) > 1, f"N={n}: factor degrees {degs} (nontrivial split)")
        )
    passed, details = _check(conditions)
    return ItemResult("reducible-at-minus-two", passed, tuple(details))


def item_mersenne_reducible(ctx: CorpusContext) -> ItemResult:
    """At c = 0: reducible when 2^N - 1 is composite (N = 4, 6 by factoring, 11 by witness)."""
    conditions = []
    for n in (4, 6):
        fac = factor_over_q(dynatomic_poly(MapSpec(2, Fraction(0)), n))
        degs = [f.degree() for f, _ in fac.factors]
        conditions.append(
            (
                not fac.is_irreducible() and not is_mersenne_prime_exponent(n),
                f"N={n}: 2^{n}-1 = {2**n - 1} composite and factor degrees {degs}",
            )
        )
    m = 2**11 - 1
    p = smallest_prime_factor(m)
    conditions.append(
        (
            not is_mersenne_prime_exponent(11) and m % p == 0 and p < m,
            f"N=11 (witness only, degree {dynatomic_degree(2, 11)} not factored): "
            f"{m} = {p} * {m // p}",
        )
    )
    passed, details = _check(conditions)
    return ItemResult("mersenne-reducible", passed, tuple(details))


def item_mersenne_irreducible(ctx: CorpusContext) -> ItemResult:
    """At c = 0: irreducible when 2^N - 1 is a Mersenne prime (N = 2, 3, 5, 7)."""
    conditions = []
    for n in (2, 3, 5, 7):
        fac = factor_over_q(dynatomic_poly(MapSpec(2, Fraction(0)), n))
        conditions.append(
            (
                fac.is_irreducible() and is_mersenne_prime_exponent(n),
                f"N={n}: 2^{n}-1 = {2**n - 1} prime and degree-{fac.factors[0][0].degree()} "
                f"polynomial irreducible",
            )
        )
    passed, details = _check(conditions)
    return ItemResult("mersenne-irreducible", passed, tuple(details))


def item_two_cycle_uniqueness(ctx: CorpusContext) -> ItemResult:
    """Every c with h(c) <= 20 has at most one 2-cycle, and the verdict never fails."""
    sweep = ctx.sweep(2, 2, 20)
    bad: list[str] = []
    for c, report in sweep:
        exact = [rec for rec in report.records if rec.exact_period == 2]
        if len(exact) > 1:
            bad.append(f"c={format_rational(c)}: {len(exact)} two-cycles")
        if report.aggregate == FAILS:
            bad.append(f"c={format_rational(c)}: aggregate fails")
    details = [f"checked {len(sweep)} parameters with h(c) <= 20"] + bad
    return ItemResult("two-cycle-uniqueness", not bad, tuple(details))


def item_period_three_holds(ctx: CorpusContext) -> ItemResult:
    """The period-3 sweep over h(c) <= 10 reports zero failures."""
    sweep = ctx.sweep(2, 3, 10)
    fails = [format_rational(c) for c, rep in sweep if rep.aggregate == FAILS]
    details = [
        f"checked {len(sweep)} parameters with h(c) <= 10",
        f"failures: {fails if fails else 'none'}",
    ]
    return ItemResult("period-three-holds", not fails, tuple(details))


def item_period_five_probe(ctx: CorpusContext) -> ItemResult:
    """Where the period-5 verdict holds (h(c) <= 6), no quadratic 5-cycle exists."""
    sweep = ctx.sweep(2, 5, 6)
    bad = []
    held = 0
    for c, report in sweep:
        if report.aggregate != HOLDS:
            continue
        held += 1
        if quadratic := report.quadratic_records:
            bad.append(f"c={format_rational(c)}: {len(quadratic)} quadratic 5-cycles")
    details = [f"{held} of {len(sweep)} parameters hold; quadratic 5-cycles found: "
               f"{bad if bad else 'none'}"]
    return ItemResult("period-five-probe", not bad, tuple(details))


def item_product_identity(ctx: CorpusContext) -> ItemResult:
    """phi^n(z) - z equals the product of dynatomic polynomials over divisors of n."""
    cs = list(enumerate_rationals_by_height(10))
    step = max(1, len(cs) // 20)
    sample = cs[::step][:20]
    bad = []
    for d in (2, 3):
        for c in sample:
            spec = MapSpec(d, c)
            for n in range(1, 7):
                if not verify_product_identity(spec, n):
                    bad.append(f"d={d}, c={format_rational(c)}, n={n}")
    details = [f"checked d in (2, 3), n <= 6 at {len(sample)} sampled parameters",
               f"violations: {bad if bad else 'none'}"]
    return ItemResult("product-identity", not bad, tuple(details))


def item_degree_formula(ctx: CorpusContext) -> ItemResult:
    """deg of the period-N dynatomic polynomial matches the divisor-sum formula."""
    cells = [(d, Fraction(0), n) for d in (2, 3, 4) for n in range(1, 7)]
    cells += [
        (d, c, n)
        for d, c in ((2, Fraction(1)), (2, Fraction(-2, 3)), (3, Fraction(1, 2)))
        for n in range(1, 5)
    ]
    bad = []
    for d, c, n in cells:
        expected = dynatomic_degree(d, n)
        got = dynatomic_poly(MapSpec(d, c), n).degree()
        if got != expected:
            bad.append(f"d={d}, N={n}, c={format_rational(c)}: degree {got} != {expected}")
    details = [f"checked {len(cells)} (d, N, c) combinations",
               f"violations: {bad if bad else 'none'}"]
    return ItemResult("degree-formula", not bad, tuple(details))


def item_cross_consistency(ctx: CorpusContext) -> ItemResult:
    """Over N in (2, 4, 6), h(c) <= 10: the two quadratic methods agree and
    irreducibility forces a holding aggregate."""
    bad = []
    total_quadratic = 0
    irreducible_cases = 0
    for n in (2, 4, 6):
        for c, report in ctx.sweep(2, n, 10):
            for rec in report.quadratic_records:
                total_quadratic += 1
                try:
                    agree = check_point(rec).holds == check_quadratic_cycle(rec)
                except ConsistencyError:
                    agree = False
                if not agree:
                    bad.append(f"disagreement at c={format_rational(c)}, N={n}")
            if report.factor_degrees == (report.phi_degree,):
                irreducible_cases += 1
                if report.aggregate != HOLDS:
                    bad.append(
                        f"irreducible but aggregate {report.aggregate} at "
                        f"c={format_rational(c)}, N={n}"
                    )
    details = [
        f"{total_quadratic} quadratic records cross-checked by both methods",
        f"{irreducible_cases} irreducible parameters all forced to hold",
        f"violations: {bad if bad else 'none'}",
    ]
    return ItemResult("cross-consistency", not bad, tuple(details))


def item_trace_rationality(ctx: CorpusContext) -> ItemResult:
    """Every quadratic cycle with a holding verdict has a rational trace."""
    bad = []
    held = 0
    for n in (2, 4, 6):
        for c, report in ctx.sweep(2, n, 10):
            for rec in report.quadratic_records:
                if check_point(rec).holds:
                    held += 1
                    if not trace_test(rec):
                        bad.append(f"irrational trace at c={format_rational(c)}, N={n}")
    details = [f"{held} holding quadratic cycles, all with rational trace"
               if not bad else f"violations: {bad}"]
    return ItemResult("trace-rationality", not bad, tuple(details))


CORPUS: tuple[tuple[str, Callable[[CorpusContext], ItemResult]], ...] = (
    ("six-cycle", item_six_cycle),
    ("reducible-at-minus-two", item_reducible_at_minus_two),
    ("mersenne-reducible", item_mersenne_reducible),
    ("mersenne-irreducible", item_mersenne_irreducible),
    ("two-cycle-uniqueness", item_two_cycle_uniqueness),
    ("period-three-holds", item_period_three_holds),
    ("period-five-probe", item_period_five_probe),
    ("product-identity", item_product_identity),
    ("degree-formula", item_degree_formula),
    ("cross-consistency", item_cross_consistency),
    ("trace-rationality", item_trace_rationality),
)


def run_corpus(
    names: Sequence[str] | None = None,
    jobs: int = 1,
    log: Callable[[str], None] | None = None,
) -> list[ItemResult]:
    """Run the corpus (or a named subset) and return per-item results."""
    selected = list(CORPUS)
    if names:
        unknown = set(names) - {name for name, _ in CORPUS}
        if unknown:
            raise ValueError(f"unknown corpus items: {sorted(unknown)}")
        selected = [(name, fn) for name, fn in CORPUS if name in set(names)]
    ctx = CorpusContext(jobs=jobs)
    results = []
    for name, fn in selected:
        result = fn(ctx)
        results.append(result)
        if log is not None:
            for line in result.lines():
                log(line)
    return results
