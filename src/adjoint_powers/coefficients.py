"""Decomposition coefficients of adjoint tensor powers.

In the stable range the k-th tensor power of the A-series adjoint
representation splits into rank-independent blocks, one block per number
of uncontracted index pairs.  The integer coefficient of block j in
power k is computed by three routes:

* the closed form C(k, j) * d_k^j: :func:`coefficient_row` for one row,
  and :func:`coefficient` for one entry of it,
* :func:`coefficient_by_contraction`: counting contraction patterns
  directly, C(k, p) * (1/p!) * sum_l C(p, l) d_{k-l}, which is C(k, p)
  times the sum formula of d_k^p, so it reads the one body of that sum,
  :func:`combinatorics._closed_form`,
* :func:`decomposition_rows`: the two-term recurrence
  c_{j+1}^k = ((k-j) c_j^k + k c_j^{k-1}) / (j+1)^2 seeded by c_0^k = d_k,
  one row at a time; :func:`decomposition_table` keeps every row.

All three must agree entry for entry; every division is exact and
checked.  Each route has one public function, and none takes a
route-selecting argument.  The closed form has one body,
:func:`_closed_form_rows`.

What the CLI prints: :func:`_closed_form_rows` gives the closed form for
every power from one pass of the higher-derangement kernel (which
``table higher`` prints), each row weighted by a Pascal row kept beside
it, so nothing divides.  ``coeffs --upto`` prints its rows 1..K on
``decimal.Decimal`` in the CLI's exact context, like the ``table``
kernels; :func:`coefficient_row`, which ``coeffs --k`` prints, is its
last row on ``int``, and :func:`coefficient` reads one entry of that.
``verify combinatorics`` compares those rows, from power 0, with the
recurrence :func:`decomposition_rows` and with the difference table
divided by j!, weighted by ``math.comb``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import islice, repeat
from operator import add, mul

from . import combinatorics
from .combinatorics import _binomial_row, binomial, derangement_numbers, exact_div

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
    """Block coefficient C(k, j) * d_k^j, entry j of :func:`coefficient_row`."""
    if k < 0 or j < 0 or j > k:
        raise ValueError(f"coefficient requires 0 <= j <= k, got ({k}, {j})")
    return coefficient_row(k).values[j]


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
    return binomial(k, p) * combinatorics._closed_form(k, _binomial_row(p), derangements)


def coefficient_row(k: int) -> CoefficientRow:
    """One full row (c_0^k, ..., c_k^k) by the closed form; k = 0 gives (1,).

    The last row of :func:`_closed_form_rows` on ``int``, the rows
    ``coeffs --upto`` prints.
    """
    if k < 0:
        raise ValueError("coefficient_row requires k >= 0")
    for row in _closed_form_rows(k, 1):
        pass
    return CoefficientRow(k, tuple(row))


def _closed_form_rows(max_power: int, one) -> Iterator[Iterator]:
    """The closed form C(k, j) * d_k^j for the powers k = 0..max_power, in
    the number type of ``one``, one row at a time.

    d_k^j comes from one pass of the higher-derangement kernel, which never
    divides, and C(k, j) from a Pascal row kept beside it.  The kernel is
    looked up on :mod:`combinatorics` at the call, so ``table higher``,
    both ``coeffs`` forms and the oracle all read the one kernel there.
    Each row is a lazy ``map`` of their products, so no row is held in two
    forms, and a row that is skipped is never multiplied.  The caller
    checks ``max_power``.
    """
    higher_rows = combinatorics._higher_derangement_rows(max_power, one)
    return map(map, repeat(mul), _pascal_rows(one), higher_rows)


def _pascal_rows(one) -> Iterator[list]:
    """C(k, 0..k) for k = 0, 1, ... without end, in the number type of
    ``one``: each row a new list, the sums of adjacent entries of the row
    before between two ones."""
    row = [one]
    while True:
        yield row
        row = [one, *map(add, row, row[1:]), one]


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
        raise ValueError("max_power must be >= 1")
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
