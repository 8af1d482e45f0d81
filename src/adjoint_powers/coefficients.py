"""Decomposition coefficients of adjoint tensor powers.

In the stable range the k-th tensor power of the A-series adjoint
representation splits into rank-independent blocks, one block per number
of uncontracted index pairs.  The integer coefficient of block j in
power k has one production path, the closed form C(k, j) * d_k^j:
:func:`coefficient_row` for one row, and :func:`coefficient` for one
entry of it.  Its one body, :func:`_coefficient_row`, builds one row
alone in O(k) steps; every division is exact and checked.

What the CLI prints: ``coeffs --k`` prints :func:`coefficient_row`, the
body's row on ``int``, which :func:`coefficient` reads; ``coeffs --upto``
prints its rows 1..K on ``decimal.Decimal`` in the CLI's exact context.
The other route is private and kept as a cross-check: the two-term
recurrence c_{j+1}^k = ((k-j) c_j^k + k c_j^{k-1}) / (j+1)^2 seeded by
c_0^k = d_k, :func:`_decomposition_rows`, one row at a time.  ``verify
combinatorics`` compares the body's row for each power from 0 with the
recurrence's, seed row (1,) first, and with the difference table over
j!, weighted by ``math.comb``; that suite, every cross-check of the
routes of this module and of :mod:`combinatorics`, runs here, in
:func:`_route_checks`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import islice
import math
from operator import mul

from . import combinatorics
from .combinatorics import ExactDivisionError, _binomial_row, derangement_numbers, exact_div

# Unused here, but kept bound: perfbench/run.py traces coefficients.canonical_json.
from .serialize import canonical_json

__all__ = ["CoefficientRow", "coefficient", "coefficient_row"]


class CoefficientRow(namedtuple("CoefficientRow", ["power", "values"])):
    """The coefficients (c_0, ..., c_k) of one tensor power, as the
    immutable named tuple ``(power, values)``."""

    __slots__ = ()


def coefficient(k: int, j: int) -> int:
    """Block coefficient C(k, j) * d_k^j, entry j of :func:`coefficient_row`."""
    if k < 0 or j < 0 or j > k:
        raise ValueError(f"coefficient requires 0 <= j <= k, got ({k}, {j})")
    return coefficient_row(k).values[j]


# Unexported, and kept callable only because perfbench/run.py's TRACED
# wraps it; ROADMAP item 4 deletes it with its TRACED entry.
def coefficient_by_contraction(k: int, p: int) -> int:
    """Block coefficient by counting contraction patterns directly.

    C(k, p) choices of the uncontracted factors, 1/p! for their order,
    and sum_l C(p, l) d_{k-l} contraction patterns on the rest.  The
    last two are the sum formula of d_k^p, :func:`combinatorics._closed_form`,
    looked up at the call; its division by p! must be exact, and a
    remainder would falsify the equivalence with the closed form.
    """
    if k < 0 or p < 0 or p > k:
        raise ValueError(f"coefficient requires 0 <= p <= k, got ({k}, {p})")
    derangements = list(islice(derangement_numbers(), k + 1))
    return math.comb(k, p) * combinatorics._closed_form(k, _binomial_row(p), derangements)


def coefficient_row(k: int) -> CoefficientRow:
    """One full row (c_0^k, ..., c_k^k), :func:`_coefficient_row` on ``int``;
    k = 0 gives (1,)."""
    if k < 0:
        raise ValueError("coefficient_row requires k >= 0")
    return CoefficientRow(k, tuple(_coefficient_row(k, 1)))


def _coefficient_row(k: int, one) -> list:
    """The closed form c_j = C(k, j) * d_k^j for j = 0..k, in the number
    type of ``one``, built from c_k = 1 (and c_{k+1} = 0) downward by

        c_{j-1} = j ((2j-k-1) c_j + (j+1)^2 c_{j+1}) / (k-j+1),

    each division checked by :func:`exact_div`, whose ``divmod`` is integer
    division on ``Decimal`` too; the CLI's exact context traps any rounding.

    Why it holds: F_j(x) = e^{-x} (1-x)^{-j-1} = sum_m d_{m+j}^j x^m / m!,
    the series ``series`` prints, satisfies F_j' = (j+1) F_{j+1} - F_j and
    F_{j-1} = (1-x) F_j.  Their coefficients of x^m / m! read

        d_k^j = (j+1) d_k^{j+1} - d_{k-1}^j         (m = k-j-1),
        d_{k-1}^{j-1} = d_k^j - (k-j) d_{k-1}^j     (m = k-j).

    The first at j-1 and at j removes d_{k-1}^{j-1} and d_{k-1}^j from the
    second, which leaves the division-free row law

        d_k^{j-1} = (2j-k-1) d_k^j + (j+1)(k-j) d_k^{j+1},

    from d_k^k = 1 and d_k^{k-1} = k-1 (the law at j = k, with
    d_k^{k+1} = 0).  Multiplying by C(k, j-1) = C(k, j) j / (k-j+1), and
    writing C(k, j+1) = C(k, j) (k-j) / (j+1), turns it into the step
    above.  The caller checks ``k``.
    """
    row = [one] * (k + 1)
    after, current = one - one, one  # c_{j+1}, c_j for j = k
    for j in range(k, 0, -1):
        step = j * (2 * j - k - 1) * current + j * (j + 1) ** 2 * after
        after, current = current, exact_div(step, k - j + 1)
        row[j - 1] = current
    return row


def _decomposition_rows(max_power: int) -> Iterator[CoefficientRow]:
    """Coefficient rows 0..max_power from the two-term recurrence, one at a
    time: row k starts at c_0^k = d_k, read from one pass of
    :func:`derangement_numbers`, and steps right through
    c_{j+1}^k = ((k-j) c_j^k + k c_j^{k-1}) / (j+1)^2, the division
    checked exact.  The power-0 row (1,) seeds the recursion and comes
    first; only the row before is held."""
    previous: tuple[int, ...] = (1,)
    yield CoefficientRow(0, previous)
    seeds = islice(derangement_numbers(), 1, max_power + 1)
    for k, d_k in enumerate(seeds, start=1):
        values = [d_k]
        for j in range(k):
            values.append(exact_div((k - j) * values[j] + k * previous[j], (j + 1) ** 2))
        previous = tuple(values)
        yield CoefficientRow(k, previous)


# Rows 1..max_power as a tuple, outside ``__all__``: kept callable only
# because perfbench/run.py's TRACED wraps it; ROADMAP item 4 drops it
# with its TRACED entry.
def decomposition_table(max_power: int) -> tuple[CoefficientRow, ...]:
    if max_power < 1:
        raise ValueError("max_power must be >= 1")
    return tuple(islice(_decomposition_rows(max_power), 1, None))


def _route_checks(limit: int) -> list[tuple[str, bool, str]]:
    """Every cross-formula check of this module and combinatorics: (name, passed, detail)."""
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
        routes = zip(
            combinatorics.euler_rows(limit),
            combinatorics.derangement_numbers(),  # what ``table derangement`` prints
            combinatorics._alternating_derangements(),
        )
        for k, (row, adjacent, alternating) in enumerate(routes):
            if not adjacent == alternating == row[0]:
                raise AssertionError(f"k={k}")

    def enumeration() -> None:
        values = islice(combinatorics.derangement_numbers(), min(limit, 9) + 1)
        for k, value in enumerate(values):
            if value != combinatorics.derangement_enumeration_oracle(k):
                raise AssertionError(f"k={k}")

    def divisibility() -> None:
        factorials = [math.factorial(j) for j in range(limit + 1)]
        for k, row in enumerate(combinatorics.euler_rows(limit)):
            for j, entry in enumerate(row):
                if entry % factorials[j]:
                    raise AssertionError(f"(k,j)=({k},{j})")

    # Each route below builds its own whole table in one pass, through its
    # one body, and reads no other route's table.
    def table_route(max_index: int):
        """Rows of the ``table`` route: the difference table divided by k!."""
        return map(combinatorics._table_route_row, combinatorics.euler_rows(max_index))

    def binomial_rows(max_index: int) -> list[list[int]]:
        return [combinatorics._binomial_row(k) for k in range(max_index + 1)]

    def higher_routes() -> None:
        printed_rows = combinatorics.higher_derangement_rows(limit)  # what ``table higher`` prints
        columns = list(combinatorics._recurrence_columns(limit))
        binomials = binomial_rows(limit)
        derangements = list(islice(combinatorics.derangement_numbers(), limit + 1))
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
        k_max = min(limit, 8)
        # d_{m+k}^k from one pass of the kernel ``table higher`` prints.
        rows = list(combinatorics.higher_derangement_rows(k_max + 20))
        for k in range(k_max + 1):
            series = combinatorics.egf_coefficients(k, 20)
            for m in range(21):
                value = series.coefficient(m) * math.factorial(m)
                if value != rows[m + k][k]:
                    raise AssertionError(f"(k,m)=({k},{m})")

    def coefficient_routes() -> None:
        binomials = binomial_rows(limit)
        rows = zip(table_route(limit), _decomposition_rows(limit), strict=True)
        for k, (table_row, recurrence_row) in enumerate(rows):
            printed_row = _coefficient_row(k, 1)  # what both ``coeffs`` forms print
            # The paper's closed form: the difference table over j!, weighted by math.comb.
            closed_row = list(map(mul, binomials[k], table_row))
            entries = zip(range(k + 1), printed_row, closed_row, recurrence_row.values, strict=True)
            for j, printed, closed, recurrence in entries:
                if not printed == closed == recurrence:
                    raise AssertionError(f"(k,j)=({k},{j})")

    record(f"derangement routes agree (0..{limit})", derangement_routes)
    record(f"enumeration oracle matches (0..{min(limit, 9)})", enumeration)
    record(f"difference-table entries divisible by column factorial (0..{limit})", divisibility)
    record(f"higher derangement routes agree (0..{limit})", higher_routes)
    record(f"higher derangement diagonal and subdiagonal laws (0..{limit})", higher_laws)
    record(f"series coefficients match higher derangements (k<=min({limit},8), m<=20)", series_consistency)
    record(f"coefficient routes agree (0..{limit})", coefficient_routes)
    return checks
