"""Decomposition coefficients of adjoint tensor powers.

In the stable range the k-th tensor power of the A-series adjoint
representation splits into rank-independent blocks, one block per number
of uncontracted index pairs.  The integer coefficient of block j in
power k is computed by three independent routes:

* :func:`coefficient`: the closed form C(k, j) * d_k^j,
* :func:`coefficient_by_contraction`: counting contraction patterns
  directly, C(k, p) * (1/p!) * sum_l C(p, l) d_{k-l},
* :func:`decomposition_rows`: the two-term recurrence
  c_{j+1}^k = ((k-j) c_j^k + k c_j^{k-1}) / (j+1)^2 seeded by c_0^k = d_k,
  one row at a time; :func:`decomposition_table` keeps every row.

All three must agree entry for entry; every division is exact and
checked.  The closed form and the contraction count each have one body,
:func:`_closed_form_row` and :func:`_contraction`, which the whole-table
sweep of ``verify combinatorics`` shares with the functions here.

What the CLI prints: ``coeffs --k`` prints :func:`coefficient_row`, the
closed form for one whole row from the last row of
:func:`higher_derangement_rows` (which ``table higher`` prints), on
``int``.  ``coeffs --upto`` prints :func:`_closed_form_rows`, the closed
form for every power from one pass of the higher-derangement kernel,
which never divides, run on ``decimal.Decimal`` in the CLI's exact
context like the ``table`` kernels.  The recurrence,
:func:`decomposition_rows`, is the route ``verify combinatorics`` and the
tests compare those rows with.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import islice, repeat
from operator import add, mul

from .combinatorics import (
    _binomial_row,
    _higher_derangement_rows,
    _table_route_row,
    binomial,
    derangement_numbers,
    euler_table,
    exact_div,
    factorial,
    higher_derangement_rows,
)

# Unused here, but kept bound: perfbench/run.py traces coefficients.canonical_json.
from .serialize import canonical_json

__all__ = [
    "CoefficientRow",
    "DecompositionTable",
    "coefficient",
    "coefficient_by_contraction",
    "coefficient_row",
    "decomposition_rows",
    "decomposition_table",
]


class CoefficientRow(namedtuple("CoefficientRow", ["power", "values"])):
    """The coefficients (c_0, ..., c_k) of one tensor power, as the
    immutable named tuple ``(power, values)``."""

    __slots__ = ()


class DecompositionTable(namedtuple("DecompositionTable", ["max_power", "rows"])):
    """Coefficient rows for powers 1..max_power, as the immutable named
    tuple ``(max_power, rows)``, ``rows`` a tuple of :class:`CoefficientRow`."""

    __slots__ = ()

    def row(self, k: int) -> CoefficientRow:
        if not 1 <= k <= self.max_power:
            raise ValueError(f"row {k} outside table of max power {self.max_power}")
        return self.rows[k - 1]


def coefficient(k: int, j: int) -> int:
    """Block coefficient by the closed form C(k, j) * d_k^j, with d_k^j by
    the ``table`` route of :func:`higher_derangement`."""
    if k < 0 or j < 0 or j > k:
        raise ValueError(f"coefficient requires 0 <= j <= k, got ({k}, {j})")
    return _closed_form_row(k, _table_route_row(euler_table(k).row(k)))[j]


def _closed_form_row(k: int, higher_row: tuple[int, ...]) -> tuple[int, ...]:
    """The closed form, one whole row: C(k, j) * d_k^j for j = 0..k, from
    row k of the higher derangements."""
    return tuple(binomial(k, j) * d for j, d in enumerate(higher_row))


def coefficient_by_contraction(k: int, p: int) -> int:
    """Block coefficient by counting contraction patterns directly.

    C(k, p) choices of the uncontracted factors, 1/p! for their order,
    and sum_l C(p, l) d_{k-l} contraction patterns on the rest.  The
    division by p! must be exact; a remainder would falsify the
    equivalence with the closed form.
    """
    if k < 0 or p < 0 or p > k:
        raise ValueError(f"coefficient requires 0 <= p <= k, got ({k}, {p})")
    return _contraction(k, _binomial_row(p), list(islice(derangement_numbers(), k + 1)))


def _contraction(k: int, binomials: list[int], derangements: list[int]) -> int:
    """The contraction count, one entry: C(k, p) (1/p!) sum_l C(p, l) d_{k-l},
    where ``binomials`` is the row C(p, 0..p) and ``derangements`` holds
    d_0..d_k (or more)."""
    p = len(binomials) - 1
    total = sum(map(mul, binomials, reversed(derangements[k - p : k + 1])))
    return binomial(k, p) * exact_div(total, factorial(p))


def coefficient_row(k: int) -> CoefficientRow:
    """One full row (c_0^k, ..., c_k^k) by the closed form; k = 0 gives (1,).

    d_k^j is read from the last row of :func:`higher_derangement_rows`,
    which holds one row of the table at a time and never divides, and
    weighted by C(k, j).
    """
    if k < 0:
        raise ValueError("coefficient_row requires k >= 0")
    for row in higher_derangement_rows(k):
        pass
    return CoefficientRow(k, _closed_form_row(k, row))


def _closed_form_rows(max_power: int, one) -> Iterator[Iterator]:
    """The closed form C(k, j) * d_k^j for the powers k = 1..max_power, in
    the number type of ``one``, one row at a time.

    d_k^j comes from one pass of :func:`_higher_derangement_rows`, which
    never divides, and C(k, j) from a Pascal row kept beside it.  Each row
    is a lazy ``map`` of their products, so no row is held in two forms.
    The argument is checked at the call, before the first row is asked for.
    """
    if max_power < 1:
        raise ValueError("decomposition_table requires max_power >= 1")
    higher_rows = islice(_higher_derangement_rows(max_power, one), 1, None)
    return map(map, repeat(mul), _pascal_rows(one), higher_rows)


def _pascal_rows(one) -> Iterator[list]:
    """C(k, 0..k) for k = 1, 2, ... without end, in the number type of
    ``one``: each row a new list, the sums of adjacent entries of the row
    before between two ones."""
    row = [one]
    while True:
        row = [one, *map(add, row, row[1:]), one]
        yield row


def decomposition_table(max_power: int) -> DecompositionTable:
    """Rows 1..max_power built from the two-term recurrence."""
    return DecompositionTable(max_power, tuple(decomposition_rows(max_power)))


def decomposition_rows(max_power: int) -> Iterator[CoefficientRow]:
    """Coefficient rows 1..max_power from the two-term recurrence, one at a time.

    Each row starts at c_0^k = d_k, read from one pass of
    :func:`derangement_numbers`, and steps right through
    c_{j+1}^k = ((k-j) c_j^k + k c_j^{k-1}) / (j+1)^2, the division
    checked exact.  The power-0 row (1,) seeds the recursion, and only
    the row before is held.  The argument is checked at the call, before
    the first row is asked for.
    """
    if max_power < 1:
        raise ValueError("decomposition_table requires max_power >= 1")
    return _decomposition_rows(max_power)


def _decomposition_rows(max_power: int) -> Iterator[CoefficientRow]:
    previous: tuple[int, ...] = (1,)
    seeds = islice(derangement_numbers(), 1, max_power + 1)
    for k, d_k in enumerate(seeds, start=1):
        values = [d_k]
        for j in range(k):
            values.append(exact_div((k - j) * values[j] + k * previous[j], (j + 1) ** 2))
        previous = tuple(values)
        yield CoefficientRow(k, previous)
