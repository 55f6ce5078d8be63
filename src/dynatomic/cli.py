"""Command-line front end.

Subcommands: phi, factor, cycles, check, scan, verify-paper.
Exit codes: 0 success, 1 usage error, 2 computation/guard error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
from fractions import Fraction

from .cycles import cycles_from_dynatomic
from .errors import (
    ConsistencyError,
    DegreeGuardError,
    NonExactDivisionError,
    NonPeriodicError,
)
from .factorq import factor_over_q
from .maps import MapSpec, dynatomic_poly, dynatomic_poly_generic
from .polynomials import format_bipoly, format_poly, parse_poly
from .property_a import check_aggregate
from .rationals import format_rational, parse_rational
from .scan import run_scan, summary_text_lines, write_records
from .verify import run_corpus

USAGE_EXIT = 1
COMPUTE_EXIT = 2
VERIFY_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like -71/48, -1.5 and polynomials like -2*z or -z^2+1
        # pass as arguments, not option names; no option holds z, ^, * or +
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$|^-[^-=]*[z^*+]")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dynatomic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_phi = sub.add_parser("phi", help="print a dynatomic polynomial")
    p_phi.add_argument("-d", "--degree", type=int, default=2, help="map degree (>= 2)")
    p_phi.add_argument("-N", "--period", type=_positive_int, required=True)
    group = p_phi.add_mutually_exclusive_group(required=True)
    group.add_argument("-c", type=_rational, help="parameter as a/b")
    group.add_argument("--generic", action="store_true", help="keep c symbolic")
    p_phi.set_defaults(func=cmd_phi)

    p_factor = sub.add_parser("factor", help="factor a polynomial over Q")
    p_factor.add_argument("poly", nargs="?", help="polynomial text, e.g. 'z^2 + z + 2'")
    p_factor.add_argument("-d", "--degree", type=int, default=2)
    p_factor.add_argument("-N", "--period", type=_positive_int)
    p_factor.add_argument("-c", type=_rational)
    p_factor.add_argument("--format", choices=("text", "json"), default="text")
    p_factor.set_defaults(func=cmd_factor)

    p_cycles = sub.add_parser("cycles", help="extract periodic cycles algebraically")
    p_cycles.add_argument("-d", "--degree", type=int, default=2)
    p_cycles.add_argument("-N", "--period", type=_positive_int, required=True)
    p_cycles.add_argument("-c", type=_rational, required=True)
    p_cycles.add_argument("--format", choices=("jsonl", "text"), default="jsonl")
    p_cycles.set_defaults(func=cmd_cycles)

    p_check = sub.add_parser("check", help="decide the orbit criterion for (d, c, N)")
    p_check.add_argument("-d", "--degree", type=int, default=2)
    p_check.add_argument("-N", "--period", type=_positive_int, required=True)
    p_check.add_argument("-c", type=_rational, required=True)
    p_check.add_argument(
        "--include-rational-points",
        action="store_true",
        help="literal reading: rational exact-period points falsify",
    )
    p_check.add_argument("--format", choices=("json", "text"), default="json")
    p_check.set_defaults(func=cmd_check)

    p_scan = sub.add_parser("scan", help="height-ordered sweep over parameters c")
    p_scan.add_argument("-d", "--degree", type=int, default=2)
    p_scan.add_argument(
        "-N",
        "--period",
        type=_positive_int,
        action="append",
        required=True,
        help="repeatable: one record per (c, N)",
    )
    p_scan.add_argument("--max-height", type=_positive_int, required=True)
    p_scan.add_argument("--jobs", type=_positive_int, default=1)
    p_scan.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p_scan.add_argument("--output", help="write records to this path (truncates)")
    p_scan.add_argument("--include-rational-points", action="store_true")
    p_scan.add_argument(
        "--timing",
        action="store_true",
        help="fill runtime_ms (off by default so output is byte-reproducible)",
    )
    p_scan.set_defaults(func=cmd_scan)

    p_verify = sub.add_parser("verify-paper", help="re-check the verification corpus")
    p_verify.add_argument("--items", action="append", help="run only the named items")
    p_verify.add_argument("--jobs", type=_positive_int, default=1)
    p_verify.set_defaults(func=cmd_verify_paper)

    return parser


def _require(parser_condition: bool, message: str) -> None:
    if not parser_condition:
        sys.stderr.write(f"dynatomic: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def cmd_phi(args) -> int:
    _require(args.degree >= 2, "map degree must be >= 2")
    if args.generic:
        poly = dynatomic_poly_generic(args.degree, args.period)
        print(f"# degree {poly.degree()}")
        print(format_bipoly(poly))
    else:
        poly = dynatomic_poly(MapSpec(args.degree, args.c), args.period)
        print(f"# degree {poly.degree()}")
        print(format_poly(poly))
    return 0


def cmd_factor(args) -> int:
    if args.poly is not None:
        _require(
            args.period is None and args.c is None,
            "give either a polynomial or -N/-c, not both",
        )
        target = parse_poly(args.poly)  # main reports a ValueError as a usage error
    else:
        _require(args.period is not None and args.c is not None,
                 "need a polynomial argument or both -N and -c")
        _require(args.degree >= 2, "map degree must be >= 2")
        target = dynatomic_poly(MapSpec(args.degree, args.c), args.period)
    _require(target.degree() >= 1, "nothing to factor: polynomial is constant")
    factorization = factor_over_q(target)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "degree": target.degree(),
                    "content": format_rational(factorization.content),
                    "factors": [
                        {"poly": format_poly(f), "degree": f.degree(), "multiplicity": m}
                        for f, m in factorization.factors
                    ],
                }
            )
        )
        return 0
    print(f"# degree {target.degree()}")
    print(f"# content {format_rational(factorization.content)}")
    for factor, mult in factorization.factors:
        text = format_poly(factor)
        print(text if mult == 1 else f"({text})^{mult}")
    return 0


def cmd_cycles(args) -> int:
    _require(args.degree >= 2, "map degree must be >= 2")
    records = cycles_from_dynatomic(MapSpec(args.degree, args.c), args.period)
    if args.format == "jsonl":
        for rec in records:
            print(json.dumps(rec.to_json_dict()))
        return 0
    for rec in records:
        flag = " (degenerate)" if rec.degenerate else ""
        disc = f" in Q(sqrt({rec.discriminant}))" if rec.discriminant is not None else ""
        print(
            f"period {rec.exact_period}, field degree {rec.field_degree}{disc}{flag}: "
            + ", ".join(rec.point_strings())
        )
    return 0


def cmd_check(args) -> int:
    _require(args.degree >= 2, "map degree must be >= 2")
    _require(args.period >= 2, "the criterion is about periods N >= 2")
    report = check_aggregate(
        MapSpec(args.degree, args.c),
        args.period,
        include_rational=args.include_rational_points,
    )
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
        return 0
    data = report.to_json_dict()
    print(f"(d, c, N) = ({data['d']}, {data['c']}, {data['N']})  ->  {data['aggregate']}")
    print(f"dynatomic degree {data['phi_degree']}, factors {data['factor_degrees']}")
    if data["rational_points"]:
        print(f"rational exact-period points: {', '.join(data['rational_points'])}")
    if data["degenerate_count"]:
        print(f"degenerate records: {data['degenerate_count']}")
    for verdict in data["verdicts"]:
        word = "holds" if verdict["holds"] else "fails"
        print(
            f"  factor degree {verdict['factor_degree']}: D0 = {verdict['D0']}, "
            f"{word} ({verdict['method']})"
        )
    return 0


def cmd_scan(args) -> int:
    _require(args.degree >= 2, "map degree must be >= 2")
    _require(all(n >= 2 for n in args.period), "scan periods must be >= 2")
    records = run_scan(
        args.degree,
        args.period,
        args.max_height,
        jobs=args.jobs,
        include_rational=args.include_rational_points,
        timing=args.timing,
    )
    try:
        target = (
            open(args.output, "w", encoding="utf-8")
            if args.output
            else contextlib.nullcontext(sys.stdout)
        )
    except OSError as exc:
        _require(False, f"cannot open output: {exc}")
    with target as stream:
        summary = write_records(records, stream, args.format)
    # the text summary goes beside the records: stdout when they went to a
    # file, stderr when CSV fills stdout (JSONL already carries its own)
    if args.output or args.format == "csv":
        notes = sys.stdout if args.output else sys.stderr
        for line in summary_text_lines(summary):
            notes.write(line + "\n")
    return 0


def cmd_verify_paper(args) -> int:
    try:
        results = run_corpus(names=args.items, jobs=args.jobs, log=print)
    except ValueError as exc:
        _require(False, str(exc))
    failed = [r for r in results if not r.passed]
    print(f"# {len(results) - len(failed)}/{len(results)} items passed")
    return VERIFY_EXIT if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DegreeGuardError as exc:
        sys.stderr.write(f"dynatomic: degree guard: {exc}\n")
        return COMPUTE_EXIT
    except (NonExactDivisionError, NonPeriodicError, ConsistencyError) as exc:
        sys.stderr.write(f"dynatomic: fatal computation error: {exc}\n")
        return COMPUTE_EXIT
    except ValueError as exc:
        sys.stderr.write(f"dynatomic: error: {exc}\n")
        return USAGE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
