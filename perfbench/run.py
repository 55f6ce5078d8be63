#!/usr/bin/env python3
"""Benchmark of the dynatomic command line, end to end and layer by layer.

    python3 perfbench/run.py --workload scan-n6 --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout of the repository; the package is used
from its `src/` tree, byte-compiled first.  Every cell is a fresh
`python -m dynatomic.cli` process, as a CLI user runs it, so each pays
interpreter start and an empty iterate cache.

--trace 0 repeats whole passes of the workload while the next one is
expected to end within --seconds, then reports the end-to-end metrics:
medians over passes, and per-cell latencies pooled over them.
--trace 1 runs the pass inside one interpreter twice, untraced and then
with spans around each layer's public callables (`inproc.py`), and reports
the per-layer metrics; on scan-n6 it first runs one untraced pool pass for
the parallel efficiency.

Every output is checked (`workloads.py`).  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; a readable summary,
with fail_ratio and the tail percentile used, goes to stderr.  The exit code
is 0 when every check passed, 1 when one failed and 2 when there is no
`src/dynatomic` to run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import CORPUS_ITEMS, Outcome, Workload, flag, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"
# fresh interpreters timed before the passes and again after them, so the
# median spans the run rather than one moment of a shared machine
SETUP_PROBES = 5
# children still running this long after the start are killed, so a run
# always ends within the 180 s a benchmark run may take
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "cells_per_s": "1/s",
    "cell_ms_p50": "ms",
    "cell_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# span name -> the per-span metrics reported for it
SPAN_METRICS = {
    "numberfield.subfield_degree": ("calls", "self_s"),
    "numberfield.minimal_polynomial": ("calls", "self_s"),
    "numberfield.apply_phi": ("calls", "self_s"),
    "numberfield.realize_quadratic": ("self_s",),
    "factorq.factor_over_q": ("calls", "self_s"),
    "polynomials.squarefree_decomposition": ("calls", "self_s"),
    "maps.dynatomic_poly": ("calls", "self_s"),
    "maps.verify_product_identity": ("calls", "self_s"),
    "cycles.cycles_from_dynatomic": ("self_s",),
    "property_a.check_aggregate": ("calls", "self_s"),
}
COUNTERS = (
    "factorq.factors_returned",
    "factorq.irreducible_share.base",
    "cycles.records",
    "cycles.merged_records",
    "property_a.verdicts",
)
PER_LAYER_UNITS = {
    **{f"{span}.{m}": ("count" if m == "calls" else "s")
       for span, ms in SPAN_METRICS.items() for m in ms},
    **{name: "count" for name in COUNTERS},
    "factorq.irreducible_share": "ratio",
    "scan.parallel_efficiency": "ratio",
    **{f"verify.item_s.{item}": "s" for item in CORPUS_ITEMS},
    "cli.self_s": "s",
    "trace_wall_s": "s",
    "trace_overhead_s": "s",
}


@dataclass
class Child:
    returncode: int
    stdout: bytes
    wall_s: float
    line_s: list[float]


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    @property
    def cell_ms(self) -> dict[str, float]:
        return {label: ms for o in self.outcomes for label, ms in o.cell_ms.items()}


def _child_env() -> dict[str, str]:
    # unbuffered, so a line's arrival time is when the CLI printed it
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")


def _kill_group(proc: subprocess.Popen) -> None:
    sys.stderr.write(f"perfbench: killed at the run limit: {proc.args[1:4]}\n")
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # the group holds any pool workers too
    except ProcessLookupError:
        pass


def run_child(cmd: list[str], deadline: float) -> Child:
    """Run one process (and its process group) to the end, noting when each stdout line came."""
    lines: list[bytes] = []
    line_s: list[float] = []
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT,
                          start_new_session=True) as proc:
        def read() -> None:
            for line in proc.stdout:
                line_s.append(time.perf_counter() - started)
                lines.append(line)

        reader = threading.Thread(target=read)
        reader.start()
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would show up in every measured time
        killer = threading.Timer(max(1.0, deadline - time.perf_counter()), _kill_group, (proc,))
        killer.start()
        proc.wait()
        killer.cancel()
        reader.join()
    return Child(proc.returncode, b"".join(lines), time.perf_counter() - started, line_s)


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "dynatomic.cli", *argv]


def run_pass(workload: Workload, seed: int, deadline: float) -> Pass:
    """One pass, each call a fresh CLI process; checks run after the clock stops."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    children = [(label, run_child(cli_command(argv), deadline))
                for label, argv in workload.calls(seed)]
    wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    done = Pass(wall, cpu)
    for label, child in children:
        done.outcomes.append(workload.check(
            label, child.returncode, child.stdout, child.wall_s * 1000.0, child.line_s))
    return done


def tail(cells: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten cells beyond it;
    with fewer than eleven cells, the largest (p100)."""
    ordered = sorted(cells)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _time_setup(deadline: float) -> list[float]:
    return [run_child([sys.executable, "-c", "import dynatomic, dynatomic.cli"], deadline).wall_s
            for _ in range(SETUP_PROBES)]


def measure_end_to_end(workload: Workload, seed: int, seconds: int, deadline: float):
    setup = _time_setup(deadline)
    passes: list[Pass] = []
    begun = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed, deadline))
        expected_end = time.perf_counter() + passes[-1].wall_s
        if expected_end - begun > seconds or expected_end > deadline:
            break
    setup += _time_setup(deadline)
    # one latency per cell, its median over the passes, so the sample count
    # and the tail percentile do not depend on how many passes fitted
    per_cell: dict[str, list[float]] = {}
    for p in passes:
        for label, ms in p.cell_ms.items():
            per_cell.setdefault(label, []).append(ms)
    cells = [statistics.median(v) for v in per_cell.values()]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    tail_ms, percentile = tail(cells) if cells else (0.0, 100.0)
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "cells_per_s": statistics.median((p.attempted - p.failed) / p.wall_s for p in passes),
        "cell_ms_p50": statistics.median(cells) if cells else 0.0,
        "cell_ms_tail": tail_ms,
        "setup_s": statistics.median(setup),
        # ru_maxrss is in KiB on Linux: the largest resident set of any child
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6,
    }
    notes = [f"{len(passes)} passes, {len(cells)} cells, each its median over the passes; "
             f"cell_ms_tail is p{percentile:.1f} of {len(cells)}"]
    return attempted, failed, metrics, END_TO_END_UNITS, notes


def run_inproc(calls: list[tuple[str, list[str]]], traced: bool, spans: Path,
               deadline: float) -> dict | None:
    cmd = [sys.executable, str(HERE / "inproc.py"), "--traced", str(int(traced)),
           "--spans", str(spans), "--calls", json.dumps(calls)]
    child = run_child(cmd, deadline)
    if child.returncode != 0:
        return None
    return json.loads(child.stdout.splitlines()[-1])


def _serial(argv: list[str]) -> list[str]:
    return [("1" if i and argv[i - 1] == "--jobs" else a) for i, a in enumerate(argv)]


def _check_inproc(workload: Workload, calls, result: dict | None) -> list[Outcome]:
    if result is None:
        return [workload.check(label, 1, b"", 0.0, []) for label, _ in calls]
    return [workload.check(o["label"], o["returncode"], o["stdout"].encode(), o["wall_ms"],
                           o["line_s"]) for o in result["outputs"]]


def measure_layers(workload: Workload, seed: int, deadline: float):
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    outcomes: list[Outcome] = []
    calls = workload.calls(seed)
    if workload.kind == "scan":
        pool = run_pass(workload, seed, deadline)
        outcomes += pool.outcomes
        busy_s = sum(pool.cell_ms.values()) / 1000.0
        jobs = int(flag(workload.argv, "--jobs"))
        metrics["scan.parallel_efficiency"] = busy_s / (jobs * pool.wall_s)
    serial = [(label, _serial(argv)) for label, argv in calls]
    spans = SPANS_DIR / f"spans-{workload.name}.jsonl"
    untraced = run_inproc(serial, False, spans, deadline)
    traced = run_inproc(serial, True, spans, deadline)
    checked = _check_inproc(workload, serial, untraced) + _check_inproc(workload, serial, traced)
    outcomes += checked
    if untraced is not None and traced is not None:
        layers = traced["layers"]
        for name in PER_LAYER_UNITS:
            metrics[name] = float(layers.get(name, metrics[name]))
        base = layers.get("factorq.irreducible_share.base", 0)
        if base:
            metrics["factorq.irreducible_share"] = layers["factorq.irreducible"] / base
        metrics["cli.self_s"] = traced["wall_s"] - layers.get("top_level_s", 0.0)
        metrics["trace_wall_s"] = traced["wall_s"]
        metrics["trace_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        if workload.kind == "corpus":  # one call; its item times in the traced pass
            for item, ms in checked[-1].cell_ms.items():
                metrics[f"verify.item_s.{item}"] = ms / 1000.0
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return attempted, failed, metrics, PER_LAYER_UNITS, [f"spans in {spans}"]


def measure(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run: the result object, with a readable summary on stderr."""
    compileall.compile_dir(SRC, quiet=1)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if trace:
        attempted, failed, metrics, units, notes = measure_layers(workload, seed, deadline)
    else:
        attempted, failed, metrics, units, notes = measure_end_to_end(
            workload, seed, seconds, deadline)
    for name, value in metrics.items():
        sys.stderr.write(f"{name} = {value:.6g} {units[name]}\n")
    sys.stderr.write(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}\n")
    for note in notes:
        sys.stderr.write(note + "\n")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "dynatomic" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no dynatomic sources under {SRC}\n")
        return 2
    table = workloads()
    if args.workload not in table:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; have {sorted(table)}\n")
        return 2
    sys.path.insert(0, str(SRC))  # the factor check rebuilds Phi_N with the library
    result = measure(table[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
