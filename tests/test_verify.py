from fractions import Fraction

from dynatomic.numberfield import QuotientAlgebra
from dynatomic.scan import map_cells
from dynatomic.verify import CorpusContext, _report_cell
from _oracles import is_stored_form


class TestCorpusContext:
    def test_parallel_sweep_equals_serial(self):
        serial = CorpusContext(jobs=1).sweep(2, 2, 4)
        parallel = CorpusContext(jobs=2).sweep(2, 2, 4)
        # report equality covers verdicts and records, field by field
        assert parallel == serial

    def test_sweep_reuses_cached_reports(self):
        ctx = CorpusContext(jobs=1)
        first = ctx.sweep(2, 2, 3)
        again = ctx.sweep(2, 2, 2)
        assert all(report is dict(first)[c] for c, report in again)

    def test_reports_cross_processes_in_the_stored_form(self):
        # the quadratic 6-cycles at c = -71/48 sit in algebras over a modulus with denominators
        keys = [(2, Fraction(-71, 48), 6), (2, Fraction(-2), 4), (3, Fraction(-7, 4), 2)]
        serial = dict(map_cells(_report_cell, keys, 1))
        pooled = dict(map_cells(_report_cell, keys, 2))
        assert pooled == serial
        for key in keys:
            assert pooled[key].to_json_dict() == serial[key].to_json_dict()
            for rec in pooled[key].records:
                assert is_stored_form(rec.factor) and all(map(is_stored_form, rec.orbit))
                assert rec.orbit[0].parent == QuotientAlgebra(rec.factor)
