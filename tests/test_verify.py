from dynatomic.verify import CorpusContext


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
