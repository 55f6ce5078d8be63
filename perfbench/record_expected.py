#!/usr/bin/env python3
"""Record the digests the benchmark checks outputs against, into expected.json.

    python3 perfbench/record_expected.py

Run it only at a commit whose outputs are known to be right: it trusts
what the CLI prints, apart from checking that each factorization multiplies
back to the dynatomic polynomial.  It takes about a minute on two cores.
"""

from __future__ import annotations

import json
import sys
import time

from run import SRC, cli_command, run_child
from workloads import (EXPECTED_FILE, FACTOR_STRATA, factors_multiply_back, normalize_scan,
                       sha256, workloads)


def main() -> int:
    sys.path.insert(0, str(SRC))
    deadline = time.perf_counter() + 3600.0
    table = workloads(expected={})
    scan = run_child(cli_command(list(table["scan-n6"].argv)), deadline)
    if scan.returncode != 0:
        raise SystemExit("scan failed")
    factor = table["factor-n7"]
    digests = {}
    for c in sorted({c for stratum in FACTOR_STRATA for c in stratum}):
        child = run_child(cli_command([*factor.argv, f"-c={c}"]), deadline)
        if child.returncode != 0 or not factors_multiply_back(child.stdout.decode(), 2, 7, c):
            raise SystemExit(f"factor at c={c} failed")
        digests[c] = sha256(child.stdout)
    expected = {
        "scan-n6": {"digest": sha256(normalize_scan(scan.stdout)),
                    "records": len(scan.stdout.splitlines()) - 1},
        "factor-n7": digests,
    }
    with open(EXPECTED_FILE, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
