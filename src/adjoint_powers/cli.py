"""Command-line front end.

Emits the exact tables (difference table, derangements, higher
derangements), the tensor-power coefficient rows, the generating-function
series, and runs the two verification suites.  Output on stdout is
byte-identical for identical arguments; diagnostics (including timings)
go to stderr.

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
from itertools import chain, islice

from . import coefficients, combinatorics, lie
from .combinatorics import ExactDivisionError
# canonical_json is unused here, but kept bound: perfbench/run.py traces cli.canonical_json.
from .serialize import _join_pieces, canonical_json, iterencode

TABLE_FORMATS = ("markdown", "csv", "json")
REPORT_FORMATS = ("text", "json")

# Cost limits: the largest accepted request finishes in about 10 s and
# under about 1 GB (Python 3.11.7, 2-vCPU Xeon VM; CHANGES.md has the
# measurements).  Anything larger exits 2 before any work is done.
#: Largest ``table euler|higher --max``: (max+1)(max+2)/2 big integers, made and
#: printed one row at a time, so time, not memory, sets it.  ``table euler
#: --max 1300 --format json``, the slowest, prints 1.9 GB in 7-9.6 s.
TABLE_LIMIT = 1300
#: Largest ``table derangement --max``: one column, so far longer than the
#: triangles.  ``--format json``, the slowest, prints 1.2 GB in 6.6-8.7 s.
DERANGEMENT_TABLE_LIMIT = 25000
#: Largest ``coeffs --k``: rows 0..k of the higher derangements, O(k^2) big-integer steps.
COEFFS_K_LIMIT = 3000
#: Largest ``coeffs --upto``: streamed row by row like the tables.  ``--format
#: json``, the slowest, prints 700 MB in 6.6-9 s.
COEFFS_UPTO_LIMIT = 1100
#: Largest ``series --k``.
SERIES_K_LIMIT = 1000
#: Largest ``series --order``.
SERIES_ORDER_LIMIT = 2500
#: Largest ``verify combinatorics --max``: the closed-form and contraction
#: routes sum O(max) products per entry, O(max^3) big-integer steps in all.
COMBINATORICS_LIMIT = 300
#: Largest ``verify oracle --kmax``: the irreps roughly double with each power.
#: ``verify oracle --kmax 16 --n 200``, the largest request, takes about 8.5 s
#: and 200 MB; ``--kmax 17 --n 120`` took 13 s.
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


def _require_nonnegative(**values: int) -> None:
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"--{name} must be nonnegative, got {value}")


def _require_at_most(limit: int, **values: int) -> None:
    for name, value in values.items():
        if value > limit:
            raise ValueError(f"--{name} {value} exceeds the cost limit (--{name} <= {limit})")


def _print_rows(fmt: str, header: list[str], rows) -> None:
    """Print a table one row at a time: markdown under its header, or CSV
    without one.  Each row is an iterable of cell strings, written in
    pieces of a few cells, so neither the table nor a row is built whole."""
    if fmt == "csv":
        for cells in rows:
            _print_row("", ",", cells, "\n")
        return
    _print_row("| ", " | ", header, " |\n")
    print("|" + "|".join(" --- " for _ in header) + "|")
    for cells in rows:
        _print_row("| ", " | ", cells, " |\n")


def _print_row(opener: str, separator: str, cells, closer: str) -> None:
    sys.stdout.writelines(chain((opener,), _join_pieces(separator, cells), (closer,)))


def _print_json(payload) -> None:
    """Print canonical JSON piece by piece as the encoder yields it, so a
    payload holding row generators is written one row at a time."""
    sys.stdout.writelines(iterencode(payload))
    print()


def _exact_context():
    """A ``decimal`` context in which integer arithmetic cannot round: the
    largest precision and exponent range, with every signal of a rounded,
    invalid or overflowing result trapped."""
    from decimal import (
        MAX_EMAX, MAX_PREC, MIN_EMIN, Context, DivisionByZero, Inexact, InvalidOperation,
        Overflow, Rounded,
    )

    traps = [Inexact, Rounded, InvalidOperation, DivisionByZero, Overflow]
    return Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=traps)


def _cmd_table(args) -> int:
    """Print a table from its row kernel run on ``Decimal``: the kernels
    only add, subtract and multiply by small ints, which the exact context
    never rounds, and a ``Decimal`` prints in time linear in its digits,
    where an ``int`` takes quadratic time."""
    _require_nonnegative(max=args.max)
    limit = DERANGEMENT_TABLE_LIMIT if args.which == "derangement" else TABLE_LIMIT
    _require_at_most(limit, max=args.max)
    from decimal import Decimal, localcontext

    # The rows are drawn lazily while they print, so they print inside the context.
    with localcontext(_exact_context()):
        _print_table(args, Decimal(1))
    return 0


def _print_table(args, one) -> None:
    if args.which == "derangement":
        values = map(str, islice(combinatorics._derangement_numbers(one), args.max + 1))
        if args.format == "json":
            _print_json({"max_index": args.max, "values": values})
        else:
            rows = ((str(k), value) for k, value in enumerate(values))
            _print_rows(args.format, ["k", "derangements"], rows)
        return
    if args.which == "euler":
        rows, index, column = combinatorics._euler_rows(args.max, one), "k", "j"
    else:
        rows, index, column = combinatorics._higher_derangement_rows(args.max, one), "n", "k"
    if args.format == "json":
        entries = ({index: i, "entries": map(str, row)} for i, row in enumerate(rows))
        _print_json({"max_index": args.max, "rows": entries})
    else:
        header = [index] + [f"{column}={j}" for j in range(args.max + 1)]
        cells = (chain((str(i),), map(str, row)) for i, row in enumerate(rows))
        _print_rows(args.format, header, cells)


def _cmd_coeffs(args) -> int:
    if args.k is not None:
        _require_nonnegative(k=args.k)
        _require_at_most(COEFFS_K_LIMIT, k=args.k)
        row = coefficients.coefficient_row(args.k)
        values = [str(v) for v in row.values]
        if args.format == "json":
            _print_json({"k": row.power, "coefficients": values})
        else:
            header = ["k"] + [f"j={j}" for j in range(len(values))]
            # The single-row CSV is the bare coefficients, without the power.
            cells = values if args.format == "csv" else [str(row.power), *values]
            _print_rows(args.format, header, [cells])
        return 0
    _require_nonnegative(upto=args.upto)
    _require_at_most(COEFFS_UPTO_LIMIT, upto=args.upto)
    from decimal import Decimal, localcontext

    # The closed form on Decimal, as ``table`` prints its kernels: it only
    # adds and multiplies, and a Decimal prints in time linear in its digits.
    with localcontext(_exact_context()):
        rows = enumerate(coefficients._closed_form_rows(args.upto, Decimal(1)), start=1)
        if args.format == "json":
            entries = ({"k": k, "coefficients": map(str, row)} for k, row in rows)
            _print_json({"max_power": args.upto, "rows": entries})
        else:
            header = ["k"] + [f"j={j}" for j in range(args.upto + 1)]
            cells = (chain((str(k),), map(str, row)) for k, row in rows)
            _print_rows(args.format, header, cells)
    return 0


def _cmd_series(args) -> int:
    _require_nonnegative(k=args.k, order=args.order)
    _require_at_most(SERIES_K_LIMIT, k=args.k)
    _require_at_most(SERIES_ORDER_LIMIT, order=args.order)
    series = combinatorics.egf_coefficients(args.k, args.order)
    values = [str(c) for c in series.coefficients]
    if args.format == "json":
        payload = {"k": series.parameter, "order": series.order, "coefficients": values}
        _print_json(payload)
    else:
        rows = ([str(m), value] for m, value in enumerate(values))
        _print_rows(args.format, ["m", "coefficient"], rows)
    return 0


def _combinatorics_checks(limit: int) -> list[tuple[str, bool, str]]:
    """Every cross-formula invariant of the two combinatorics modules."""
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, fn) -> None:
        try:
            fn()
        except AssertionError as exc:
            checks.append((name, False, str(exc)))
        except ExactDivisionError as exc:
            checks.append((name, False, f"exact division violated: {exc}"))
        except ValueError as exc:
            checks.append((name, False, f"domain error: {exc}"))
        else:
            checks.append((name, True, ""))

    def derangement_routes() -> None:
        for k, row in enumerate(combinatorics.euler_rows(limit)):
            adjacent = combinatorics.derangement(k, "adjacent")
            alternating = combinatorics.derangement(k, "alternating")
            if not adjacent == alternating == row[0]:
                raise AssertionError(f"k={k}")

    def enumeration() -> None:
        for k in range(min(limit, 9) + 1):
            if combinatorics.derangement(k) != combinatorics.derangement_enumeration_oracle(k):
                raise AssertionError(f"k={k}")

    def divisibility() -> None:
        factorials = [combinatorics.factorial(j) for j in range(limit + 1)]
        for k, row in enumerate(combinatorics.euler_rows(limit)):
            for j, entry in enumerate(row):
                if entry % factorials[j]:
                    raise AssertionError(f"(k,j)=({k},{j})")

    # Each route below builds its own whole table in one pass, through the
    # body its per-entry function uses, and reads no other route's table.
    def table_route(max_index: int):
        """Rows of the ``table`` route: the difference table divided by k!."""
        return map(combinatorics._table_route_row, combinatorics.euler_rows(max_index))

    def derangement_list(max_index: int) -> list[int]:
        return list(islice(combinatorics.derangement_numbers(), max_index + 1))

    def binomial_rows(max_index: int) -> list[list[int]]:
        return [combinatorics._binomial_row(k) for k in range(max_index + 1)]

    def higher_routes() -> None:
        printed_rows = combinatorics.higher_derangement_rows(limit)  # what ``table higher`` prints
        columns = list(combinatorics._recurrence_columns(limit))
        binomials, derangements = binomial_rows(limit), derangement_list(limit)
        rows = zip(range(limit + 1), printed_rows, table_route(limit), strict=True)
        for n, printed_row, table_row in rows:
            for k, printed, table in zip(range(n + 1), printed_row, table_row, strict=True):
                recurrence = columns[k][n]
                closed = combinatorics._closed_form(n, binomials[k], derangements)
                if not table == recurrence == closed == printed:
                    raise AssertionError(f"(n,k)=({n},{k})")

    def higher_laws() -> None:
        for n, row in enumerate(table_route(limit)):
            if row[n] != 1:
                raise AssertionError(f"diagonal n={n}")
            if n >= 1 and row[n - 1] != n - 1:
                raise AssertionError(f"subdiagonal n={n}")

    def series_consistency() -> None:
        for k in range(min(limit, 8) + 1):
            series = combinatorics.egf_coefficients(k, 20)
            for m in range(21):
                value = series.coefficient(m) * combinatorics.factorial(m)
                if value != combinatorics.higher_derangement(m + k, k):
                    raise AssertionError(f"(k,m)=({k},{m})")

    def coefficient_routes() -> None:
        if limit < 1:
            return
        binomials, derangements = binomial_rows(limit), derangement_list(limit)
        rows = zip(
            range(1, limit + 1),
            coefficients._closed_form_rows(limit, 1),  # what ``coeffs --upto`` prints
            coefficients.decomposition_rows(limit),
            islice(table_route(limit), 1, None),
            strict=True,
        )
        for k, upto_row, recurrence_row, table_row in rows:
            closed_row = coefficients._closed_form_row(k, table_row)
            printed = coefficients.coefficient_row(k).values  # what ``coeffs --k`` prints
            entries = zip(
                range(k + 1), upto_row, printed, closed_row, recurrence_row.values, strict=True
            )
            for j, upto, value, closed, recurrence in entries:
                contraction = coefficients._contraction(k, binomials[j], derangements)
                if not upto == closed == contraction == recurrence == value:
                    raise AssertionError(f"(k,j)=({k},{j})")

    record(f"derangement routes agree (0..{limit})", derangement_routes)
    record(f"enumeration oracle matches (0..{min(limit, 9)})", enumeration)
    record(f"difference-table entries divisible by column factorial (0..{limit})", divisibility)
    record(f"higher derangement routes agree (0..{limit})", higher_routes)
    record(f"higher derangement diagonal and subdiagonal laws (0..{limit})", higher_laws)
    record(f"series coefficients match higher derangements (k<=min({limit},8), m<=20)", series_consistency)
    record(f"coefficient routes agree (0..{limit})", coefficient_routes)
    return checks


def _cmd_verify_combinatorics(args) -> int:
    _require_nonnegative(max=args.max)
    _require_at_most(COMBINATORICS_LIMIT, max=args.max)
    checks = _combinatorics_checks(args.max)
    passed = all(ok for _, ok, _ in checks)
    if args.format == "json":
        payload = {
            "suite": "combinatorics",
            "max": args.max,
            "passed": passed,
            "checks": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in checks
            ],
        }
        _print_json(payload)
    else:
        for name, ok, detail in checks:
            print(f"ok {name}" if ok else f"FAIL {name}: {detail}")
        print(f"result: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _render_report_text(report: lie.VerificationReport) -> str:
    lines = [f"verify oracle: k_max={report.k_max} rank={report.rank}"]
    for check in report.checks:
        status = "ok" if check.passed else "FAIL"
        lines.append(
            f"k={check.power} {status} dimension={check.dimension_observed}"
            f" trivial={check.trivial_observed}"
        )
        if check.dimension_expected != check.dimension_observed:
            lines.append(
                f"  dimension mismatch: expected {check.dimension_expected},"
                f" observed {check.dimension_observed}"
            )
        if check.trivial_expected != check.trivial_observed:
            lines.append(
                f"  trivial multiplicity mismatch: expected {check.trivial_expected},"
                f" observed {check.trivial_observed}"
            )
        if not check.leading_ok:
            lines.append("  leading label missing or off unit multiplicity")
        for label, mult in sorted(check.negative_entries.items()):
            lines.append(f"  negative block entry {_label_text(label)}: {mult}")
        for label, (expected, observed) in sorted(check.residual.items()):
            lines.append(
                f"  residual {_label_text(label)}: expected {expected}, observed {observed}"
            )
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def _label_text(label: lie.StableLabel) -> str:
    return f"({list(label.left)},{list(label.right)})"


def _cmd_verify_oracle(args) -> int:
    # Negative and out-of-range values are refused by lie, with its messages.
    _require_at_most(ORACLE_KMAX_LIMIT, kmax=args.kmax)
    _require_at_most(ORACLE_RANK_LIMIT, n=args.n)
    report = lie.verify_stable_decomposition(args.kmax, args.n)
    if args.format == "json":
        _print_json(report.to_payload())
    else:
        print(_render_report_text(report))
    print(
        f"verified k_max={report.k_max} rank={report.rank} in {report.seconds:.3f}s",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


def run(argv: list[str] | None = None) -> int:
    # Table entries outgrow CPython's default 4,300-digit int-to-str limit
    # (d_2000 has 5,736 digits); interpreters before 3.10.7 have no limit.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
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
        # An exact division left a remainder (ExactDivisionError), or the
        # oracle met a label off the root lattice: the formulas were falsified.
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
