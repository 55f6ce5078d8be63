import io
import json
from fractions import Fraction

import pytest

from dynatomic.rationals import naive_height
from dynatomic.scan import (
    CSV_COLUMNS,
    run_scan,
    scan_one,
    summarize,
    summary_json_line,
    write_records,
)


def render_jsonl(records):
    buf = io.StringIO()
    write_records(records, buf, "jsonl")
    return buf.getvalue()


class TestScanOne:
    def test_basic_record(self):
        rec = scan_one(2, Fraction(-1), 2)
        assert rec.aggregate == "holds"
        assert rec.rational_point_count == 2
        assert rec.quadratic_cycle_count == 0
        assert rec.phi_degree == 2
        assert rec.runtime_ms is None

    def test_timing_fills_runtime(self):
        rec = scan_one(2, Fraction(0), 2, timing=True)
        assert isinstance(rec.runtime_ms, int)

    def test_degenerate_counted(self):
        rec = scan_one(2, Fraction(-3, 4), 2)
        assert rec.aggregate == "vacuous"
        assert rec.degenerate_count == 1


class TestRunScan:
    def test_order_and_coverage(self):
        records = list(run_scan(2, [2], max_height=4))
        keys = [(r.height, r.c.numerator, r.c.denominator) for r in records]
        assert keys == sorted(keys)
        assert len(records) == len(set(r.c for r in records))

    def test_one_record_per_c_n_pair(self):
        records = list(run_scan(2, [2, 3], max_height=2))
        pairs = [(r.c, r.n) for r in records]
        assert len(pairs) == len(set(pairs))
        # within one c the periods ascend
        by_c: dict[Fraction, list[int]] = {}
        for r in records:
            by_c.setdefault(r.c, []).append(r.n)
        assert all(ns == sorted(ns) for ns in by_c.values())

    def test_byte_identical_across_jobs(self):
        solo = render_jsonl(run_scan(2, [2, 3], max_height=3, jobs=1))
        dual = render_jsonl(run_scan(2, [2, 3], max_height=3, jobs=2))
        assert solo == dual

    def test_byte_identical_across_runs(self):
        first = render_jsonl(run_scan(2, [2], max_height=4))
        second = render_jsonl(run_scan(2, [2], max_height=4))
        assert first == second

    def test_rejects_empty_periods(self):
        with pytest.raises(ValueError):
            list(run_scan(2, [], max_height=2))


class TestSummary:
    def test_counts_match_records(self):
        records = list(run_scan(2, [2], max_height=5))
        summary = summarize(records)
        per = summary[2]
        assert per["records"] == len(records)
        assert per["holds"] + per["fails"] + per["vacuous"] == len(records)
        assert per["failure_proportion"] == "0"

    def test_proportion_is_exact_fraction_text(self):
        records = list(run_scan(2, [2], max_height=3))
        summary = summarize(records)
        assert isinstance(summary[2]["failure_proportion"], str)


class TestWriters:
    def test_jsonl_roundtrip(self):
        records = list(run_scan(2, [2], max_height=3))
        buf = io.StringIO()
        summary = write_records(iter(records), buf, "jsonl")
        lines = buf.getvalue().splitlines()
        assert len(lines) == len(records) + 1
        for line, rec in zip(lines, records):
            data = json.loads(line)
            assert Fraction(data["c"]) == rec.c
            assert data["height"] == naive_height(rec.c)
            assert data["aggregate"] == rec.aggregate
            assert data["runtime_ms"] is None
        assert summary == summarize(records)
        assert lines[-1] == summary_json_line(summary)

    def test_csv_shape(self):
        records = list(run_scan(2, [2], max_height=2))
        buf = io.StringIO()
        summary = write_records(iter(records), buf, "csv")
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == len(records) + 1
        assert all(line.count(",") == len(CSV_COLUMNS) - 1 for line in lines)
        assert summary == summarize(records)
