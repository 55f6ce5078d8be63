"""Small-size smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

It runs shrunken versions of the three workload kinds (N=3 instead of 6 or
7, two corpus items) and checks that every metric BENCHMARK.json names is
emitted with its unit, that a wrong expected digest is a failure, and that
a cell that raises counts in fail_ratio.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

import pytest

import run
from workloads import Workload, normalize_scan, sha256

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCAN = ("scan", "-d", "2", "-N", "3", "--max-height", "2", "--jobs", "2", "--timing",
        "--format", "jsonl")
FACTOR = ("factor", "-d", "2", "-N", "3")
CORPUS = ("verify-paper", "--jobs", "1", "--items", "degree-formula", "--items",
          "mersenne-reducible")


def _stdout(argv) -> bytes:
    child = run.run_child(run.cli_command(list(argv)), time.perf_counter() + 60.0)
    assert child.returncode == 0
    return child.stdout


@pytest.fixture(scope="module")
def small() -> dict[str, Workload]:
    scan_out = _stdout(SCAN)
    factor_digests = {c: sha256(_stdout([*FACTOR, f"-c={c}"])) for c in ("1", "-1")}
    return {
        "scan": Workload("scan-small", "scan", SCAN, {
            "digest": sha256(normalize_scan(scan_out)),
            "records": len(scan_out.splitlines()) - 1}),
        "factor": Workload("factor-small", "factor", FACTOR, factor_digests, (("1", "-1"),)),
        "corpus": Workload("corpus-small", "corpus", CORPUS, {}),
    }


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("kind", ["scan", "factor", "corpus"])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(small, kind, trace):
    result = run.measure(small[kind], seed=1, seconds=1, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.mark.parametrize("kind", ["scan", "factor"])
def test_corrupted_digest_is_a_failure(small, kind):
    workload = small[kind]
    corrupt = {key: ("0" * 64 if isinstance(value, str) else value)
               for key, value in workload.expected.items()}
    result = run.measure(replace(workload, expected=corrupt), seed=1, seconds=1, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


class _WithRaisingCell(Workload):
    def calls(self, seed):
        # N=13 exceeds the degree guard, so the CLI raises DegreeGuardError and exits 2
        return [*super().calls(seed), ("guard", ["factor", "-d", "2", "-N", "13", "-c=1"])]


def test_fail_ratio_counts_a_cell_that_raises(small):
    factor = small["factor"]
    workload = _WithRaisingCell(factor.name, factor.kind, factor.argv, factor.expected,
                                factor.strata)
    result = run.measure(workload, seed=1, seconds=1, trace=False)
    # every pass attempts one good cell and the raising one
    assert result["attempted"] >= 2 and result["failed"] * 2 == result["attempted"]
    assert not result["correct"]
