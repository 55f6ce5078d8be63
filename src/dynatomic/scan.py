"""Height-ordered parameter scan with deterministic, machine-readable output.

Parameters c stream in (height, numerator, denominator) order; each (c, N)
pair yields one record.  `map_cells` is the one parallel sweep engine: the
scan and the verification corpus both run their cells through it.  Workers
are pure functions of their inputs and results come back in input order, so
the byte content of a scan is identical no matter how many jobs run it.
Timing is off by default for exactly that reason: runtime_ms stays null
unless explicitly requested.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .maps import MapSpec
from .property_a import FAILS, HOLDS, VACUOUS, check_aggregate
from .rationals import enumerate_rationals_by_height, format_rational, naive_height

CSV_COLUMNS = (
    "d",
    "N",
    "c",
    "height",
    "phi_degree",
    "factor_degrees",
    "aggregate",
    "rational_points",
    "quadratic_cycles",
    "degenerate",
    "runtime_ms",
)


@dataclass(frozen=True)
class ScanRecord:
    d: int
    n: int
    c: Fraction
    height: int
    phi_degree: int
    factor_degrees: tuple[int, ...]
    aggregate: str
    rational_point_count: int
    quadratic_cycle_count: int
    degenerate_count: int
    runtime_ms: int | None

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "N": self.n,
            "c": format_rational(self.c),
            "height": self.height,
            "phi_degree": self.phi_degree,
            "factor_degrees": list(self.factor_degrees),
            "aggregate": self.aggregate,
            "rational_points": self.rational_point_count,
            "quadratic_cycles": self.quadratic_cycle_count,
            "degenerate": self.degenerate_count,
            "runtime_ms": self.runtime_ms,
        }

    def to_csv_row(self) -> str:
        d = self.to_json_dict()
        d["factor_degrees"] = "+".join(str(k) for k in self.factor_degrees)
        d["runtime_ms"] = "" if self.runtime_ms is None else str(self.runtime_ms)
        return ",".join(str(d[col]) for col in CSV_COLUMNS)


def scan_one(
    d: int, c: Fraction, n: int, include_rational: bool = False, timing: bool = False
) -> ScanRecord:
    """Evaluate one (c, N) cell of the scan grid."""
    started = time.perf_counter()
    report = check_aggregate(MapSpec(d, c), n, include_rational=include_rational)
    elapsed = int(round((time.perf_counter() - started) * 1000)) if timing else None
    return ScanRecord(
        d=d,
        n=n,
        c=c,
        height=naive_height(c),
        phi_degree=report.phi_degree,
        factor_degrees=report.factor_degrees,
        aggregate=report.aggregate,
        rational_point_count=len(report.rational_points),
        quadratic_cycle_count=len(report.quadratic_records),
        degenerate_count=len(report.degenerate),
        runtime_ms=elapsed,
    )


def map_cells(fn: Callable, cells: Iterable, jobs: int) -> Iterator:
    """Yield fn(cell) for every cell, lazily and in input order.

    With jobs > 1 the cells run in a pool of that many processes, handed out
    four at a time; fn must then be a module-level function so workers can
    unpickle it, and cells and results must pickle.
    """
    if jobs <= 1:
        yield from map(fn, cells)
        return
    from concurrent.futures import ProcessPoolExecutor  # imports multiprocessing: pools only

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(fn, cells, chunksize=4)


def _scan_cell(args: tuple[int, Fraction, tuple[int, ...], bool, bool]) -> list[ScanRecord]:
    d, c, periods, include_rational, timing = args
    return [scan_one(d, c, n, include_rational, timing) for n in periods]


def run_scan(
    d: int,
    periods: Sequence[int],
    max_height: int,
    jobs: int = 1,
    include_rational: bool = False,
    timing: bool = False,
) -> Iterator[ScanRecord]:
    """Yield records for every c with h(c) <= max_height, in canonical order."""
    periods = tuple(sorted(set(periods)))
    if not periods:
        raise ValueError("need at least one period")
    cells = (
        (d, c, periods, include_rational, timing)
        for c in enumerate_rationals_by_height(max_height)
    )
    for records in map_cells(_scan_cell, cells, jobs):
        yield from records


def summarize(records: Iterable[ScanRecord]) -> dict[int, dict[str, object]]:
    """Per-period counts of holds/fails/vacuous plus the exact failure proportion."""
    counts: dict[int, dict[str, int]] = {}
    for rec in records:
        per = counts.setdefault(rec.n, {HOLDS: 0, FAILS: 0, VACUOUS: 0})
        per[rec.aggregate] += 1
    out: dict[int, dict[str, object]] = {}
    for n in sorted(counts):
        per = counts[n]
        total = per[HOLDS] + per[FAILS] + per[VACUOUS]
        proportion = Fraction(per[FAILS], total) if total else Fraction(0)
        out[n] = {
            "records": total,
            HOLDS: per[HOLDS],
            FAILS: per[FAILS],
            VACUOUS: per[VACUOUS],
            "failure_proportion": format_rational(proportion),
        }
    return out


def write_records(
    records: Iterable[ScanRecord], stream: TextIO, fmt: str
) -> dict[int, dict[str, object]]:
    """Stream records to `stream` as "jsonl" or "csv"; return the summary of them.

    JSONL ends with the summary line in the same stream.  CSV gets a header
    row and no summary, which would break the table; the caller shows it.
    """
    csv = fmt == "csv"
    if csv:
        stream.write(",".join(CSV_COLUMNS) + "\n")

    def written() -> Iterator[ScanRecord]:
        for rec in records:
            line = rec.to_csv_row() if csv else json.dumps(rec.to_json_dict())
            stream.write(line + "\n")
            yield rec

    summary = summarize(written())
    if not csv:
        stream.write(summary_json_line(summary) + "\n")
    return summary


def summary_json_line(summary: dict[int, dict[str, object]]) -> str:
    return json.dumps({"summary": {str(n): v for n, v in summary.items()}})


def summary_text_lines(summary: dict[int, dict[str, object]]) -> list[str]:
    lines = []
    for n, row in summary.items():
        lines.append(
            f"# summary N={n}: records={row['records']} holds={row[HOLDS]} "
            f"fails={row[FAILS]} vacuous={row[VACUOUS]} "
            f"failure_proportion={row['failure_proportion']}"
        )
    return lines
