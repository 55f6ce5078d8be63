"""Run a pass of dynatomic CLI calls inside this interpreter, traced or not.

    PYTHONPATH=src python3 perfbench/inproc.py --traced 1 --spans out.jsonl \
        --calls '[["1/2", ["factor", "-d", "2", "-N", "7", "-c=1/2"]]]'

With --traced 1 the public callables each layer's caller looks up are
wrapped at that module attribute, and every call records a span: name,
start, end, parent span and cell id.  Spans stay in memory and are written
to the --spans file at the end.  The last stdout line is one JSON
object with the pass wall time, each call's output and the per-layer totals.
Nothing under `src/` is modified; the wrapping lives only in this process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import time
from collections import Counter
from pathlib import Path

import dynatomic.cli
import dynatomic.cycles
import dynatomic.property_a
import dynatomic.scan
import dynatomic.verify
from dynatomic.polynomials import Poly


class Tracer:
    """Spans of wrapped calls, kept in memory.

    A span is [name, start_ns, end_ns, parent span index or None, cell id].
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.cell = ""
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, count=None, cell_of=None) -> None:
        """Replace owner.attr by a traced call; `count(counts, result)` adds counters,
        `cell_of(*args)` names the cell a top-level call starts."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            outer_cell = self.cell
            if cell_of is not None and parent is None:
                self.cell = cell_of(*args)
            span = [name, time.perf_counter_ns(), None, parent, self.cell]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
                self.cell = outer_cell
            if count is not None:
                count(self.counts, result)
            return result

        setattr(owner, attr, traced)

    def layers(self) -> dict[str, float]:
        """calls and self_s per span name, plus the time of top-level spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, parent, _), covered in zip(self.spans, child_ns):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start - covered) / 1e9
            if parent is None:
                out["top_level_s"] += (end - start) / 1e9
        out.update(self.counts)
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, cell in self.spans:
                handle.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                         "parent": parent, "cell": cell}) + "\n")


def _count_factorization(counts: Counter, fac) -> None:
    counts["factorq.factors_returned"] += len(fac.factors)
    counts["factorq.irreducible_share.base"] += 1
    counts["factorq.irreducible"] += fac.is_irreducible()


def _count_records(counts: Counter, records) -> None:
    counts["cycles.records"] += len(records)
    counts["cycles.merged_records"] += sum(len(r.merged_factors) > 1 for r in records)


def _count_verdicts(counts: Counter, report) -> None:
    counts["property_a.verdicts"] += len(report.verdicts)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public callables where their callers look them up."""
    def scan_cell(spec, n, *rest):
        return f"c={spec.c} N={n}"

    pa, cy, ve, cli = dynatomic.property_a, dynatomic.cycles, dynatomic.verify, dynatomic.cli
    tracer.wrap(pa, "cycles_from_dynatomic", "cycles.cycles_from_dynatomic", _count_records)
    tracer.wrap(pa, "subfield_degree", "numberfield.subfield_degree")
    for owner in (cy, ve, cli):
        tracer.wrap(owner, "dynatomic_poly", "maps.dynatomic_poly")
        tracer.wrap(owner, "factor_over_q", "factorq.factor_over_q", _count_factorization)
    for attr in ("minimal_polynomial", "apply_phi", "realize_quadratic"):
        tracer.wrap(cy, attr, f"numberfield.{attr}")
    tracer.wrap(ve, "check_aggregate", "property_a.check_aggregate", _count_verdicts)
    tracer.wrap(ve, "verify_product_identity", "maps.verify_product_identity")
    tracer.wrap(dynatomic.scan, "check_aggregate", "property_a.check_aggregate",
                _count_verdicts, cell_of=scan_cell)
    tracer.wrap(Poly, "squarefree_decomposition", "polynomials.squarefree_decomposition")


class _Capture(io.StringIO):
    """stdout that notes when each line ends; corpus items end with a PASS/FAIL line."""

    def __init__(self, started: float, tracer: Tracer | None):
        super().__init__()
        self.started = started
        self.line_s: list[float] = []
        self._tracer = tracer
        self._pending = ""
        self._items_done = 0

    def write(self, text: str) -> int:
        now = time.perf_counter() - self.started
        self._pending += text
        *lines, self._pending = self._pending.split("\n")
        for line in lines:
            self.line_s.append(now)
            if self._tracer is not None and line.startswith(("PASS ", "FAIL ")):
                self._items_done += 1
                self._tracer.cell = f"item {self._items_done}"
        return super().write(text)


def run_pass(calls: list[tuple[str, list[str]]], tracer: Tracer | None) -> dict:
    outputs = []
    started = time.perf_counter()
    for label, argv in calls:
        if tracer is not None:
            tracer.cell = label
        begun = time.perf_counter()
        capture = _Capture(begun, tracer)
        with contextlib.redirect_stdout(capture):
            returncode = dynatomic.cli.main(argv)
        outputs.append({"label": label, "returncode": returncode, "stdout": capture.getvalue(),
                        "wall_ms": (time.perf_counter() - begun) * 1000.0,
                        "line_s": capture.line_s})
    return {"wall_s": time.perf_counter() - started, "outputs": outputs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", required=True, help="JSON list of [cell label, CLI argv]")
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path, help="where a traced pass writes its spans")
    args = parser.parse_args()
    tracer = Tracer() if args.traced else None
    if tracer is not None:
        install(tracer)
    result = run_pass([(label, argv) for label, argv in json.loads(args.calls)], tracer)
    if tracer is not None:
        result["layers"] = tracer.layers()
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
