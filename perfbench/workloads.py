"""The benchmark's workloads and the checks on their outputs.

A workload is a list of `dynatomic` CLI invocations, one pass.  Each
invocation's stdout is checked against digests recorded from a known-good
commit (`expected.json`), so a pass that prints anything else counts as
failed cells, never as a fast pass.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "expected.json"

CORPUS_ITEMS = (
    "six-cycle",
    "reducible-at-minus-two",
    "mersenne-reducible",
    "mersenne-irreducible",
    "two-cycle-uniqueness",
    "period-three-holds",
    "period-five-probe",
    "product-identity",
    "degree-formula",
)

# The 15 parameters c with h(c) <= 3, in seven strata of cells that cost
# about the same (factor wall times at the seed commit on 2 cores: 0.2-0.3 s,
# 1.1 s, 1.2-1.4 s, 2.1 s, 3.4-4.0 s, 8.6-10 s, 9-12 s).  The seed draws one c
# per stratum, so every draw has the same cost profile: the seed moves which
# parameters are factored, not how much work a pass is.  The costliest cell
# is a stratum of its own because it is the tail of every pass.
FACTOR_STRATA = (
    ("0", "3", "-3"),
    ("-1", "-2"),
    ("1", "2"),
    ("3/2", "-3/2"),
    ("1/2", "-1/2"),
    ("2/3", "-1/3", "-2/3"),
    ("1/3",),
)

_RUNTIME = re.compile(rb'"runtime_ms": (?:\d+|null)')
_POWER = re.compile(r"\((.*)\)\^(\d+)")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def normalize_scan(stdout: bytes) -> bytes:
    """Scan JSONL with every runtime_ms nulled, the only field that varies."""
    return _RUNTIME.sub(b'"runtime_ms": null', stdout)


def flag(argv: list[str] | tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


@dataclass
class Outcome:
    """Cells attempted and failed by one invocation, and the latency of each passed cell."""

    attempted: int
    failed: int
    cell_ms: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind "scan": one `scan --format jsonl --timing` call; a cell is a record.
    kind "factor": one `factor` call per c drawn from `strata`; a cell is a call.
    kind "corpus": one `verify-paper` call; a cell is a corpus item.
    `expected` is this workload's entry of `expected.json`: for scan the
    digest of the normalized output and its record count, for factor one
    digest per c.
    """

    name: str
    kind: str
    argv: tuple[str, ...]
    expected: dict
    strata: tuple[tuple[str, ...], ...] = ()

    def calls(self, seed: int) -> list[tuple[str, list[str]]]:
        """(cell label, CLI argv) for one pass; only factor workloads use the seed."""
        if self.kind == "factor":
            rng = random.Random(seed)
            return [(c, [*self.argv, f"-c={c}"]) for c in (rng.choice(s) for s in self.strata)]
        return [(self.name, list(self.argv))]

    def check(
        self, label: str, returncode: int, stdout: bytes, wall_ms: float, line_s: list[float]
    ) -> Outcome:
        """Check one invocation's output; `line_s` holds each stdout line's time."""
        if self.kind == "scan":
            return self._check_scan(returncode, stdout)
        if self.kind == "factor":
            ok = returncode == 0 and self._factor_ok(label, stdout)
            return Outcome(1, 0, {label: wall_ms}) if ok else Outcome(1, 1)
        return self._check_corpus(returncode, stdout, line_s)

    def _check_scan(self, returncode: int, stdout: bytes) -> Outcome:
        cells = self.expected["records"]
        if returncode != 0 or sha256(normalize_scan(stdout)) != self.expected["digest"]:
            return Outcome(cells, cells)
        records = [json.loads(line) for line in stdout.splitlines()[:-1]]
        return Outcome(cells, 0, {r["c"]: float(r["runtime_ms"]) for r in records})

    def _factor_ok(self, c: str, stdout: bytes) -> bool:
        if sha256(stdout) != self.expected.get(c):
            return False
        return factors_multiply_back(
            stdout.decode(), int(flag(self.argv, "-d")), int(flag(self.argv, "-N")), c
        )

    def _check_corpus(self, returncode: int, stdout: bytes, line_s: list[float]) -> Outcome:
        items = [self.argv[i + 1] for i, a in enumerate(self.argv) if a == "--items"]
        lines = stdout.decode().splitlines()
        done = {}
        previous = 0.0
        for line, at in zip(lines, line_s):
            if line.startswith(("PASS ", "FAIL ")):
                done[line[5:]] = (line.startswith("PASS "), (at - previous) * 1000.0)
                previous = at
        summary_ok = bool(lines) and lines[-1] == f"# {len(items)}/{len(items)} items passed"
        if returncode != 0 or not summary_ok:
            return Outcome(len(items), len(items))
        passed = {i: done[i][1] for i in items if i in done and done[i][0]}
        return Outcome(len(items), len(items) - len(passed), passed)


def factors_multiply_back(text: str, d: int, n: int, c: str) -> bool:
    """content * prod(factor^mult) parsed from `factor` text equals Phi_n at c."""
    from dynatomic.maps import MapSpec, dynatomic_poly
    from dynatomic.polynomials import Poly, parse_poly
    from dynatomic.rationals import parse_rational

    lines = text.splitlines()
    if len(lines) < 3 or not lines[1].startswith("# content "):
        return False
    product = Poly.constant(parse_rational(lines[1][len("# content "):]))
    for line in lines[2:]:
        power = _POWER.fullmatch(line)
        factor, mult = (power[1], int(power[2])) if power else (line, 1)
        product = product * parse_poly(factor) ** mult
    return product == dynatomic_poly(MapSpec(d, parse_rational(c)), n)


def workloads(expected: dict | None = None) -> dict[str, Workload]:
    """The benchmark's workloads, checked against `expected` (default: expected.json)."""
    if expected is None:
        expected = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    corpus = ["verify-paper", "--jobs", "1"]
    for item in CORPUS_ITEMS:
        corpus += ["--items", item]
    scan = ("scan", "-d", "2", "-N", "6", "--max-height", "5", "--jobs", "2", "--timing",
            "--format", "jsonl")
    return {
        "scan-n6": Workload("scan-n6", "scan", scan, expected.get("scan-n6", {})),
        "factor-n7": Workload("factor-n7", "factor", ("factor", "-d", "2", "-N", "7"),
                              expected.get("factor-n7", {}), FACTOR_STRATA),
        "corpus-light": Workload("corpus-light", "corpus", tuple(corpus), {}),
    }
