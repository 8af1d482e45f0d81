"""Exact integer combinatorics built around Euler's difference table.

Everything here is arbitrary-precision: every public function returns
plain Python ``int`` integers, and rationals are ``fractions.Fraction``,
imported by :func:`egf_coefficients`, the one function that builds them.
The central objects are the triangular difference table ``e[k][j]``
(diagonal ``j!``, backward difference recurrence), the derangement
numbers it produces in its first column, and the integer refinement
``d[n][k] = e[n][k] / k!``, which has a recurrence of its own and is
built without dividing.  Each table is a generator of its rows, which
holds one row at a time; factorials and binomial coefficients are
``math.factorial`` and ``math.comb``.  Every division that must come
out even goes through :func:`exact_div`, which refuses to round.

The three row kernels behind ``table`` (the difference table, the
higher derangements and the derangement column) add, subtract and
multiply by small integers only, so each has one body generic over its
number type, given by its unit ``one``.  The library runs them on ``int``;
the CLI runs them on ``decimal.Decimal`` in an exact context, whose
str() is linear in the digits where int's is quadratic.

Each public function has one path and takes no route-selecting
argument; a per-entry function reads the production kernel its command
prints: :func:`derangement` reads
:func:`derangement_numbers`, and :func:`higher_derangement` reads
:func:`higher_derangement_rows`.  The reference routes are private
bodies that ``verify combinatorics`` sweeps as whole tables against
those kernels: the alternating recurrence
:func:`_alternating_derangements` here, and, for the higher
derangements, :func:`_table_route_row`, :func:`_recurrence_columns` and
:func:`_closed_form`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import accumulate, count, islice
import math
from operator import mul

__all__ = [
    "ENUMERATION_LIMIT",
    "ExactDivisionError",
    "PowerSeries",
    "derangement",
    "derangement_enumeration_oracle",
    "derangement_numbers",
    "egf_coefficients",
    "euler_rows",
    "exact_div",
    "higher_derangement",
    "higher_derangement_rows",
]

#: Largest argument accepted by the brute-force derangement count: all 10!
#: permutations are built, one byte per entry, and checked column by column.
ENUMERATION_LIMIT = 10


class ExactDivisionError(ArithmeticError):
    """A division that must be exact left a remainder.

    Raised instead of rounding: a nonzero remainder in any of the table
    divisions means a recurrence was violated, and silent truncation
    would mask the bug.
    """


def exact_div(numerator: int, denominator: int) -> int:
    """Divide two integers, insisting on a zero remainder."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ExactDivisionError(
            f"{numerator} is not divisible by {denominator} (remainder {remainder})"
        )
    return quotient


def _binomial_row(k: int) -> list[int]:
    """C(k, 0), C(k, 1), ..., C(k, k)."""
    return [math.comb(k, j) for j in range(k + 1)]


def euler_rows(max_index: int) -> Iterator[tuple[int, ...]]:
    """Rows e[0], e[1], ..., e[max_index] of the difference table, one at a time.

    Row k is seeded with e[k][k] = k! and swept downward in j from the
    row before it, the only row held.  The argument is checked at the
    call, before the first row is asked for.
    """
    if max_index < 0:
        raise ValueError("max_index must be >= 0")
    return _euler_rows(max_index, 1)


def _euler_rows(max_index: int, one) -> Iterator[tuple]:
    """The body of :func:`euler_rows`, in the number type of ``one``; k! is
    a running product."""
    previous: tuple = ()
    diagonal = one
    for k in range(max_index + 1):
        if k:
            diagonal *= k
        row = [diagonal] * (k + 1)
        for j in range(k - 1, -1, -1):
            row[j] = row[j + 1] - previous[j]
        previous = tuple(row)
        yield previous


def derangement(k: int) -> int:
    """Number of fixed-point-free permutations of k items, d_k, read from
    :func:`derangement_numbers`."""
    if k < 0:
        raise ValueError("derangement requires k >= 0")
    return next(islice(derangement_numbers(), k, None))


def derangement_numbers():
    """d_0, d_1, d_2, ... without end, in one pass of the adjacent
    recurrence d_k = (k-1) (d_{k-1} + d_{k-2})."""
    return _derangement_numbers(1)


def _derangement_numbers(one) -> Iterator:
    """The body of :func:`derangement_numbers`, in the number type of ``one``."""
    prev, curr = one, one - one  # d_0, d_1
    yield prev
    for i in count(2):
        yield curr
        prev, curr = curr, (i - 1) * (curr + prev)


def _alternating_derangements() -> Iterator[int]:
    """Reference route: d_0, d_1, d_2, ... without end, by the alternating
    recurrence d_k = k d_{k-1} + (-1)^k from d_0 = 1."""
    value = 1
    yield value
    for k in count(1):
        value = k * value + (-1 if k & 1 else 1)
        yield value


def derangement_enumeration_oracle(k: int) -> int:
    """Count derangements literally, by checking every permutation of {0..k-1}.

    Costs k! permutations, so arguments above ``ENUMERATION_LIMIT`` are
    refused.  The permutations are built as bytes columns, one byte per
    entry, and checked in the k blocks of :func:`_permutation_blocks`.  In
    each block, column i is translated to a mask of the rows whose entry i
    equals i; the k masks are ORed as ints, and the bits left set count the
    rows with a fixed point.  Every one of the k! permutations is built and
    each of its k positions is compared with the identity; none is skipped.
    """
    if k < 0:
        raise ValueError("enumeration requires k >= 0")
    if k > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration of {k}! permutations exceeds the cost limit (k <= {ENUMERATION_LIMIT})"
        )
    if k == 0:
        return 1  # the one permutation of nothing has no fixed point
    marks = [bytes(i) + b"\1" + bytes(255 - i) for i in range(k)]  # byte i -> 1, others -> 0
    derangements = 0
    for block in _permutation_blocks(k):
        fixed = 0
        for column, mark in zip(block, marks, strict=True):
            fixed |= int.from_bytes(column.translate(mark), "little")
        derangements += len(block[0]) - fixed.bit_count()
    return derangements


def _permutation_blocks(k: int) -> list[list[bytes]]:
    """Every permutation of range(k), k >= 1, as k blocks of (k-1)! rows.

    A block is a list of k ``bytes`` columns, column i holding entry i of
    each row.  Block j is the permutations of range(k-1) with k-1 inserted
    at position j, and shares their k-1 columns: the blocks of range(k-1)
    joined, built in the same way from range(0) up.
    """
    blocks, size = [[]], 1  # range(0): one block of one empty row
    for m in range(k):
        columns = list(map(b"".join, zip(*blocks)))  # the permutations of range(m)
        inserted = bytes((m,)) * size
        blocks = [[*columns[:j], inserted, *columns[j:]] for j in range(m + 1)]
        size *= m + 1
    return blocks


def higher_derangement(n: int, k: int) -> int:
    """Higher derangement number d_n^k, an exact integer for 0 <= k <= n,
    read from row n of :func:`higher_derangement_rows`."""
    if n < 0 or k < 0:
        raise ValueError("higher_derangement requires n, k >= 0")
    if k > n:
        raise ValueError(f"higher_derangement requires k <= n, got ({n}, {k})")
    return next(islice(higher_derangement_rows(n), n, None))[k]


def _table_route_row(euler_row: tuple[int, ...]) -> tuple[int, ...]:
    """Reference route ``table``, one whole row: d_n^k = e_n^k / k! for
    k = 0..n, from row n of the difference table."""
    factorials = accumulate(range(1, len(euler_row)), mul, initial=1)
    return tuple(map(exact_div, euler_row, factorials))


def _recurrence_columns(max_index: int) -> Iterator[list[int]]:
    """Reference route ``recurrence``, column by column: column k lists
    d_n^k for n = 0..max_index (0 above the diagonal, n < k), each column
    from the one before by d_n^k = (d_n^{k-1} + d_{n-1}^{k-1}) / k.
    Column 0 is the derangement numbers."""
    column = list(islice(derangement_numbers(), max_index + 1))
    yield column
    for k in range(1, max_index + 1):
        column = [0] * k + [
            exact_div(column[n] + column[n - 1], k) for n in range(k, max_index + 1)
        ]
        yield column


def _closed_form(n: int, binomials: list[int], derangements: list[int]) -> int:
    """Reference route ``closed_form``, one entry: d_n^k = (1/k!) sum_j
    C(k, j) d_{n-j}, where ``binomials`` is the row C(k, 0..k) and
    ``derangements`` holds d_0..d_n (or more).  C(n, k) times it counts
    the contraction patterns of block k in power n, its coefficient."""
    k = len(binomials) - 1
    total = sum(map(mul, binomials, reversed(derangements[n - k : n + 1])))
    return exact_div(total, math.factorial(k))


def higher_derangement_rows(max_index: int) -> Iterator[tuple[int, ...]]:
    """Rows d[0], d[1], ..., d[max_index] of the higher derangements, one at a time.

    The difference-table recurrence e[n][k] = e[n][k+1] - e[n-1][k],
    divided through by k!, reads d[n][k] = (k+1) d[n][k+1] - d[n-1][k]
    with d[n][n] = 1.  Each row is swept downward in k from that diagonal,
    so every entry is an exact integer by construction: no factorial is
    formed and nothing is divided.  Only the row before is held.  The
    argument is checked at the call, before the first row is asked for.
    """
    if max_index < 0:
        raise ValueError("max_index must be >= 0")
    return _higher_derangement_rows(max_index, 1)


def _higher_derangement_rows(max_index: int, one) -> Iterator[tuple]:
    """The body of :func:`higher_derangement_rows`, in the number type of ``one``."""
    previous: tuple = ()
    for n in range(max_index + 1):
        row = [one] * (n + 1)
        for k in range(n - 1, -1, -1):
            row[k] = (k + 1) * row[k + 1] - previous[k]
        previous = tuple(row)
        yield previous


# Whole tables, outside ``__all__``: kept callable only because
# perfbench/run.py's TRACED wraps them; ROADMAP item 4 drops them with
# their TRACED entries.
def euler_table(max_index: int) -> tuple[tuple[int, ...], ...]:
    return tuple(euler_rows(max_index))


def higher_derangement_table(max_index: int) -> tuple[tuple[int, ...], ...]:
    return tuple(higher_derangement_rows(max_index))


class PowerSeries(namedtuple("PowerSeries", ["parameter", "order", "coefficients"])):
    """Exact rational truncation of exp(-x) / (1-x)^(parameter+1).

    An immutable named tuple ``(parameter, order, coefficients)``:
    ``coefficients[m]`` is the ``Fraction`` coefficient of x^m and equals
    d_{m+parameter}^parameter / m!.
    """

    __slots__ = ()

    def coefficient(self, m: int):
        """The ``Fraction`` coefficient of x^m."""
        if not 0 <= m <= self.order:
            raise ValueError(f"coefficient {m} outside truncation order {self.order}")
        return self.coefficients[m]


def egf_coefficients(k: int, order: int) -> PowerSeries:
    """Series of exp(-x) / (1-x)^(k+1) to the given order.

    The convolution of sum (-1)^i x^i / i! with sum C(m+k, k) x^m, taken in
    integers: the coefficient of x^m is N_m / m! with
    N_m = sum_i (-1)^i (m!/i!) C(m-i+k, k).  The falling factorials m!/i!
    are grown by Horner's rule, multiplying the partial sum by i before
    adding term i, so every product has one machine-sized factor.  Only
    the final quotient is a ``Fraction``, one per coefficient.  Nothing
    here reads the higher derangements, so their agreement with this
    series is an independent check.
    """
    if k < 0:
        raise ValueError("series parameter must be >= 0")
    if order < 0:
        raise ValueError("order must be >= 0")
    from fractions import Fraction

    binomials = [math.comb(j + k, k) for j in range(order + 1)]
    coefficients = []
    for m in range(order + 1):
        total = 0
        for i in range(m + 1):
            term = binomials[m - i]
            total = total * i + (-term if i & 1 else term)
        coefficients.append(Fraction(total, math.factorial(m)))
    return PowerSeries(k, order, tuple(coefficients))
