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
checked.  :func:`coefficient_row` computes the same closed form for a
whole row from one rolling row of the difference table.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import mul

from .combinatorics import (
    binomial,
    derangement,
    derangement_numbers,
    exact_div,
    factorial,
    higher_derangement,
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


@dataclass(frozen=True)
class CoefficientRow:
    """The coefficients (c_0, ..., c_k) of one tensor power."""

    power: int
    values: tuple[int, ...]


@dataclass(frozen=True)
class DecompositionTable:
    """Coefficient rows for powers 1..max_power."""

    max_power: int
    rows: tuple[CoefficientRow, ...]

    def row(self, k: int) -> CoefficientRow:
        if not 1 <= k <= self.max_power:
            raise ValueError(f"row {k} outside table of max power {self.max_power}")
        return self.rows[k - 1]


def coefficient(k: int, j: int) -> int:
    """Block coefficient by the closed form C(k, j) * d_k^j."""
    if k < 0 or j < 0 or j > k:
        raise ValueError(f"coefficient requires 0 <= j <= k, got ({k}, {j})")
    return binomial(k, j) * higher_derangement(k, j)


def coefficient_by_contraction(k: int, p: int) -> int:
    """Block coefficient by counting contraction patterns directly.

    C(k, p) choices of the uncontracted factors, 1/p! for their order,
    and sum_l C(p, l) d_{k-l} contraction patterns on the rest.  The
    division by p! must be exact; a remainder would falsify the
    equivalence with the closed form.
    """
    if k < 0 or p < 0 or p > k:
        raise ValueError(f"coefficient requires 0 <= p <= k, got ({k}, {p})")
    total = sum(binomial(p, l) * derangement(k - l) for l in range(p + 1))
    return binomial(k, p) * exact_div(total, factorial(p))


def coefficient_row(k: int) -> CoefficientRow:
    """One full row (c_0^k, ..., c_k^k) by the closed form; k = 0 gives (1,).

    Row k of the difference table is built from one rolling row,
    e_m^m = m! and e_m^j = e_m^{j+1} - e_{m-1}^j, then divided entry by
    entry by a running j!, giving d_k^j, and weighted by C(k, j).
    """
    if k < 0:
        raise ValueError("coefficient_row requires k >= 0")
    entries = [1]  # e_0^0
    m_factorial = 1
    for m in range(1, k + 1):
        m_factorial *= m
        entries.append(m_factorial)
        for j in range(m - 1, -1, -1):
            entries[j] = entries[j + 1] - entries[j]
    factorials = accumulate(range(1, k + 1), mul, initial=1)
    return CoefficientRow(
        k,
        tuple(
            binomial(k, j) * exact_div(entry, j_factorial)
            for j, (entry, j_factorial) in enumerate(zip(entries, factorials))
        ),
    )


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
