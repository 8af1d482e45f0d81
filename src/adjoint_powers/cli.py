"""Command-line front end.

Emits the exact tables (difference table, derangements, higher
derangements), the tensor-power coefficient rows, the generating-function
series, and the reports of the two verification suites, which the library
runs (``coefficients._route_checks`` and ``lie.verify_stable_decomposition``).
This module parses, refuses a request above its cost limit, times the
oracle and renders: every record's text and JSON forms, the oracle
report's included, are built here, none in the library.  Output on stdout
is byte-identical for identical arguments; diagnostics (including the
oracle's timing) go to stderr.

Every command prints through one printer, ``_print_output``, the only
code here that branches on the format.  A command hands it each form of
its output (a JSON payload, text lines, or CSV and markdown rows); a
table's forms all draw lazily on one row generator, and only the form
asked for is drawn.

Exit codes: 0 success, 1 verification failure (report still printed,
except on an arithmetic fault, which prints none and names itself on
stderr), 2 usage or domain error, including a request above its cost
limit, 141 (128 + SIGPIPE) when the reader closes stdout early, as
``| head`` does.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from itertools import chain, islice

from . import coefficients, combinatorics, lie
# canonical_json is unused here, but kept bound: perfbench/run.py traces cli.canonical_json.
from .serialize import _join_pieces, canonical_json, iterencode

TABLE_FORMATS = ("markdown", "csv", "json")
REPORT_FORMATS = ("text", "json")

# Cost limits: the largest accepted request finishes in about 10 s and
# under about 1 GB (Python 3.11.7, 2-vCPU Xeon VM; CHANGES.md has the
# measurements; CI fails an at-limit command above 1024 MB peak RSS).
# Anything larger exits 2 before any work is done.
#: Largest ``table euler|higher --max``: (max+1)(max+2)/2 big integers, made and
#: printed one row at a time, so time, not memory, sets it.  ``table euler
#: --max 1300 --format json``, the slowest, prints 1.9 GB in 7-9.6 s.
TABLE_LIMIT = 1300
#: Largest ``table derangement --max``: one column, so far longer than the
#: triangles.  ``--format json``, the slowest, prints 1.2 GB in 6.6-8.7 s.
DERANGEMENT_TABLE_LIMIT = 25000
#: Largest ``coeffs --k``: one row of the closed-form body, built in O(k)
#: small-multiplier steps (0.03 s at 3000), so its quadratic ``int``-to-``str``
#: print sets the limit.  ``--format json`` and ``csv`` take 1.8-2.1 s and 38 MB.
COEFFS_K_LIMIT = 3000
#: Largest ``coeffs --upto``: streamed row by row like the tables.  ``--format
#: json``, the slowest, prints 700 MB in 3.4-5.0 s over ten runs.
COEFFS_UPTO_LIMIT = 1100
#: Largest ``series --k``.
SERIES_K_LIMIT = 1000
#: Largest ``series --order``.
SERIES_ORDER_LIMIT = 2500
#: Largest ``verify combinatorics --max``: the sum formula of the higher
#: derangements adds O(max) products per entry, O(max^3) big-integer steps in all.
COMBINATORICS_LIMIT = 300
#: Largest ``verify oracle --kmax``: the irreps roughly double with each power.
#: ``verify oracle --kmax 16 --n 200``, the largest request, took 3.7-4.1 s and
#: 98 MB in three runs (earlier ones 4.9-12 s).  Power 17, beyond the limit, took
#: 5.4-5.8 s and 128 MB at rank 120 and 6.6-8.0 s and 158 MB at rank 200, in
#: process (three runs each).
ORACLE_KMAX_LIMIT = 16
#: Largest ``verify oracle --n``: each label's packed key, its bytes and the
#: pass over them that measures it grow linearly with the rank.
ORACLE_RANK_LIMIT = 200


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjoint-powers",
        description="Exact adjoint tensor-power decomposition tables and their verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="print one of the exact integer tables")
    table.add_argument(
        "which",
        choices=("euler", "derangement", "higher"),
        help="difference table, derangement numbers, or higher derangement numbers",
    )
    table.add_argument("--max", type=int, required=True, help="largest row index")
    table.add_argument("--format", choices=TABLE_FORMATS, default="markdown")

    coeffs = sub.add_parser("coeffs", help="tensor-power decomposition coefficients")
    which_rows = coeffs.add_mutually_exclusive_group(required=True)
    which_rows.add_argument("--k", type=int, help="single power")
    which_rows.add_argument("--upto", type=int, help="all powers 1..K")
    coeffs.add_argument("--format", choices=TABLE_FORMATS, default="markdown")

    series = sub.add_parser(
        "series", help="exact rational series of exp(-x)/(1-x)^(k+1)"
    )
    series.add_argument("--k", type=int, required=True, help="series parameter")
    series.add_argument("--order", type=int, required=True, help="truncation order")
    series.add_argument("--format", choices=TABLE_FORMATS, default="markdown")

    verify = sub.add_parser("verify", help="run a verification suite")
    vsub = verify.add_subparsers(dest="suite", required=True)
    vcomb = vsub.add_parser(
        "combinatorics", help="cross-check every formula route against the others"
    )
    vcomb.add_argument("--max", type=int, required=True, help="largest index swept")
    vcomb.add_argument("--format", choices=REPORT_FORMATS, default="text")
    voracle = vsub.add_parser(
        "oracle", help="certify the coefficients representation-theoretically"
    )
    voracle.add_argument("--kmax", type=int, required=True, help="largest tensor power")
    voracle.add_argument("--n", type=int, required=True, help="algebra rank")
    voracle.add_argument("--format", choices=REPORT_FORMATS, default="text")

    return parser


def _require_sizes(**sizes: tuple[int, int, int]) -> None:
    """Refuse a size argument, given as ``name=(lowest, value, limit)``,
    below its lowest value or above its cost limit.  Every argument is held
    to its lowest value before any to its limit, so a request with both
    faults names the low one."""
    for name, (lowest, value, _) in sizes.items():
        if value < lowest:
            bound = f">= {lowest}" if lowest else "nonnegative"
            raise ValueError(f"--{name} must be {bound}, got {value}")
    for name, (_, value, limit) in sizes.items():
        if value > limit:
            raise ValueError(f"--{name} {value} exceeds the cost limit (--{name} <= {limit})")


def _print_output(fmt: str, **forms) -> None:
    """Print the form of a command's output that ``fmt`` names: ``json`` a
    payload, ``text`` lines, ``csv`` rows, and ``markdown`` a header and
    rows, each row an iterable of cell strings.  Rows go out a few cells at
    a time and the payload as the encoder yields it, so a form made of
    generators is never built whole, and the other forms are never drawn."""
    form = forms[fmt]
    if fmt == "json":
        sys.stdout.writelines(iterencode(form))
        print()
    elif fmt == "text":
        for line in form:
            print(line)
    elif fmt == "csv":
        for cells in form:
            _print_row("", ",", cells, "\n")
    else:
        header, rows = form
        _print_row("| ", " | ", header, " |\n")
        print("|" + "|".join(" --- " for _ in header) + "|")
        for cells in rows:
            _print_row("| ", " | ", cells, " |\n")


def _print_row(opener: str, separator: str, cells, closer: str) -> None:
    sys.stdout.writelines(chain((opener,), _join_pieces(separator, cells), (closer,)))


def _print_numbered_rows(fmt, size_key, size, rows, index, entries, column, start=0) -> None:
    """Print ``rows`` of cells 0..``size``, numbered from ``start``: in JSON
    as ``{size_key: size, "rows": [{index: i, entries: [...]}, ...]}``, in
    markdown and CSV a line per row led by its number."""
    numbered = enumerate(rows, start)
    payload = {size_key: size, "rows": ({index: i, entries: map(str, row)} for i, row in numbered)}
    cells = (chain((str(i),), map(str, row)) for i, row in numbered)
    header = [index, *(f"{column}={j}" for j in range(size + 1))]
    _print_output(fmt, json=payload, csv=cells, markdown=(header, cells))


def _print_column(fmt: str, payload: dict, header: list[str], values) -> None:
    """Print one column of ``values``: in JSON the ``payload`` that holds
    them, in markdown and CSV a line per value led by its index."""
    cells = ((str(i), value) for i, value in enumerate(values))
    _print_output(fmt, json=payload, csv=cells, markdown=(header, cells))


@contextmanager
def _exact_decimals():
    """Yield ``Decimal(1)`` in a ``decimal`` context in which integer
    arithmetic cannot round, for a row kernel to run on: the largest
    precision and exponent range, with every signal of a rounded, invalid
    or overflowing result trapped.  The kernels only add, subtract,
    multiply and divide exactly, which the context never rounds, and a
    ``Decimal`` prints in time linear in its digits, where an ``int``
    takes quadratic time.  The rows are drawn while they print, so they
    print inside the block."""
    from decimal import (
        MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DivisionByZero, Inexact,
        InvalidOperation, Overflow, Rounded, localcontext,
    )

    traps = [Inexact, Rounded, InvalidOperation, DivisionByZero, Overflow]
    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=traps)):
        yield Decimal(1)


def _cmd_table(args) -> int:
    limit = DERANGEMENT_TABLE_LIMIT if args.which == "derangement" else TABLE_LIMIT
    _require_sizes(max=(0, args.max, limit))
    with _exact_decimals() as one:
        if args.which == "derangement":
            values = map(str, islice(combinatorics._derangement_numbers(one), args.max + 1))
            payload = {"max_index": args.max, "values": values}
            _print_column(args.format, payload, ["k", "derangements"], values)
        elif args.which == "euler":
            rows = combinatorics._euler_rows(args.max, one)
            _print_numbered_rows(args.format, "max_index", args.max, rows, "k", "entries", "j")
        else:
            rows = combinatorics._higher_derangement_rows(args.max, one)
            _print_numbered_rows(args.format, "max_index", args.max, rows, "n", "entries", "k")
    return 0


def _cmd_coeffs(args) -> int:
    if args.k is not None:
        _require_sizes(k=(0, args.k, COEFFS_K_LIMIT))
        row = coefficients.coefficient_row(args.k)
        values = [str(v) for v in row.values]
        header = ["k"] + [f"j={j}" for j in range(len(values))]
        _print_output(
            args.format,
            json={"k": row.power, "coefficients": values},
            # The single-row CSV is the bare coefficients, without the power.
            csv=[values],
            markdown=(header, [[str(row.power), *values]]),
        )
        return 0
    _require_sizes(upto=(1, args.upto, COEFFS_UPTO_LIMIT))
    # The closed-form body on Decimal, as ``table`` prints its kernels, a row at a time.
    with _exact_decimals() as one:
        rows = (coefficients._coefficient_row(k, one) for k in range(1, args.upto + 1))
        _print_numbered_rows(
            args.format, "max_power", args.upto, rows, "k", "coefficients", "j", start=1
        )
    return 0


def _cmd_series(args) -> int:
    _require_sizes(k=(0, args.k, SERIES_K_LIMIT), order=(0, args.order, SERIES_ORDER_LIMIT))
    series = combinatorics.egf_coefficients(args.k, args.order)
    values = [str(c) for c in series.coefficients]
    payload = {"k": series.parameter, "order": series.order, "coefficients": values}
    _print_column(args.format, payload, ["m", "coefficient"], values)
    return 0


def _cmd_verify_combinatorics(args) -> int:
    _require_sizes(max=(0, args.max, COMBINATORICS_LIMIT))
    checks = coefficients._route_checks(args.max)
    passed = all(ok for _, ok, _ in checks)
    payload = {
        "suite": "combinatorics",
        "max": args.max,
        "passed": passed,
        "checks": [
            {"name": name, "passed": ok, "detail": detail} for name, ok, detail in checks
        ],
    }
    lines = [f"ok {name}" if ok else f"FAIL {name}: {detail}" for name, ok, detail in checks]
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    _print_output(args.format, json=payload, text=lines)
    return 0 if passed else 1


def _report_lines(report: lie.VerificationReport):
    yield f"verify oracle: k_max={report.k_max} rank={report.rank}"
    for check in report.checks:
        status = "ok" if check.passed else "FAIL"
        yield (
            f"k={check.power} {status} dimension={check.dimension_observed}"
            f" trivial={check.trivial_observed}"
        )
        if check.dimension_expected != check.dimension_observed:
            yield (
                f"  dimension mismatch: expected {check.dimension_expected},"
                f" observed {check.dimension_observed}"
            )
        if check.trivial_expected != check.trivial_observed:
            yield (
                f"  trivial multiplicity mismatch: expected {check.trivial_expected},"
                f" observed {check.trivial_observed}"
            )
        for label, (expected, observed) in sorted(check.residual.items()):
            yield f"  residual {_label_text(label)}: expected {expected}, observed {observed}"
    yield f"result: {'PASS' if report.passed else 'FAIL'}"


def _label_text(label: lie.StableLabel) -> str:
    return f"({list(label.left)},{list(label.right)})"


def _report_payload(report: lie.VerificationReport) -> dict:
    """The oracle report's JSON: integers as decimal strings, labels as
    partition pairs.  ``leading_ok`` and ``negative_entries`` are read from
    the residual: the leading label [(k), (k)] is not in it, and each
    label of fewer than k boxes a side held fewer times than predicted
    is a negative entry, observed - expected."""
    return {
        "k_max": report.k_max,
        "rank": report.rank,
        "passed": report.passed,
        "checks": [
            {
                "k": check.power,
                "dimension_expected": str(check.dimension_expected),
                "dimension_observed": str(check.dimension_observed),
                "trivial_expected": str(check.trivial_expected),
                "trivial_observed": str(check.trivial_observed),
                "leading_ok": lie.leading_block_label(check.power) not in check.residual,
                "negative_entries": [
                    {"label": list(map(list, label)), "multiplicity": str(obs - exp)}
                    for label, (exp, obs) in sorted(check.residual.items())
                    if obs < exp and sum(label.left) < check.power
                ],
                "residual": [
                    {"label": list(map(list, label)), "expected": str(exp), "observed": str(obs)}
                    for label, (exp, obs) in sorted(check.residual.items())
                ],
            }
            for check in report.checks
        ],
    }


def _cmd_verify_oracle(args) -> int:
    _require_sizes(kmax=(0, args.kmax, ORACLE_KMAX_LIMIT), n=(1, args.n, ORACLE_RANK_LIMIT))
    started = time.perf_counter()
    report = lie.verify_stable_decomposition(args.kmax, args.n)
    seconds = time.perf_counter() - started
    _print_output(args.format, json=_report_payload(report), text=_report_lines(report))
    print(f"verified k_max={report.k_max} rank={report.rank} in {seconds:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


def run(argv: list[str] | None = None) -> int:
    # The tables print through Decimal, but coeffs --k and series print ints
    # through str, past CPython's default limit of 4,300 digits: coeffs --k 1600
    # holds a 4,466-digit entry, series --k 0 --order 1800 a 5,075-digit
    # denominator.  The caller's limit is restored on return, however the
    # command ends.  Interpreters before 3.10.7 have no limit.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "coeffs":
            return _cmd_coeffs(args)
        if args.command == "series":
            return _cmd_series(args)
        if args.suite == "combinatorics":
            return _cmd_verify_combinatorics(args)
        return _cmd_verify_oracle(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # An exact division left a remainder, or the oracle met a label off
        # the root lattice: the formulas were falsified.
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone; devnull on stdout keeps the flush at exit from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(141) from None
    raise SystemExit(code)
