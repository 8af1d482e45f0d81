"""Golden tables and cross-route checks for the difference-table module."""

from fractions import Fraction
from itertools import islice, permutations
import math

import pytest
from hypothesis import given, settings, strategies as st

from adjoint_powers import combinatorics
from adjoint_powers import (
    ENUMERATION_LIMIT,
    ExactDivisionError,
    derangement,
    derangement_enumeration_oracle,
    derangement_numbers,
    egf_coefficients,
    euler_rows,
    exact_div,
    higher_derangement,
    higher_derangement_rows,
)

# The first eleven derangement numbers.
DERANGEMENTS = (1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961)

# Reference difference table, rows k = 0..9 (55 entries).
EULER_ROWS = (
    (1,),
    (0, 1),
    (1, 1, 2),
    (2, 3, 4, 6),
    (9, 11, 14, 18, 24),
    (44, 53, 64, 78, 96, 120),
    (265, 309, 362, 426, 504, 600, 720),
    (1854, 2119, 2428, 2790, 3216, 3720, 4320, 5040),
    (14833, 16687, 18806, 21234, 24024, 27240, 30960, 35280, 40320),
    (133496, 148329, 165016, 183822, 205056, 229080, 256320, 287280, 322560, 362880),
)

# Reference higher derangement table, rows n = 0..9 (55 entries).
HIGHER_ROWS = (
    (1,),
    (0, 1),
    (1, 1, 1),
    (2, 3, 2, 1),
    (9, 11, 7, 3, 1),
    (44, 53, 32, 13, 4, 1),
    (265, 309, 181, 71, 21, 5, 1),
    (1854, 2119, 1214, 465, 134, 31, 6, 1),
    (14833, 16687, 9403, 3539, 1001, 227, 43, 7, 1),
    (133496, 148329, 82508, 30637, 8544, 1909, 356, 57, 8, 1),
)


def derangement_routes(max_index):
    """d_0..d_max_index by each route: the production generator (the
    adjacent recurrence), the private alternating recurrence, and column 0
    of the difference table."""
    return {
        "adjacent": tuple(islice(derangement_numbers(), max_index + 1)),
        "alternating": tuple(islice(combinatorics._alternating_derangements(), max_index + 1)),
        "table": tuple(row[0] for row in euler_rows(max_index)),
    }


def higher_derangement_routes(n, k):
    """d_n^k by each private reference route: the difference table divided
    by k!, the recurrence in k, and the closed form."""
    derangements = list(islice(derangement_numbers(), n + 1))
    *_, euler_row = euler_rows(n)
    return {
        "table": combinatorics._table_route_row(euler_row)[k],
        "recurrence": next(islice(combinatorics._recurrence_columns(n), k, None))[n],
        "closed_form": combinatorics._closed_form(n, combinatorics._binomial_row(k), derangements),
    }


def test_factorial_examples():
    # The diagonal of the difference table is its running factorial, e[k][k] = k!.
    rows = list(euler_rows(9))
    assert rows[0][0] == 1
    assert rows[5][5] == 120
    assert rows[9][9] == 362880


def test_factorial_multiplicative_consistency():
    rows = list(euler_rows(29))
    for k in range(1, 30):
        assert rows[k][k] == k * rows[k - 1][k - 1]


def test_binomial_examples():
    # The binomial row that weights the closed form and the contraction count.
    assert combinatorics._binomial_row(4)[2] == 6
    for k in (0, 1, 7, 23):
        assert combinatorics._binomial_row(k)[0] == 1
    assert combinatorics._binomial_row(3) == [1, 3, 3, 1]


def test_binomial_against_pascal_triangle():
    # Independent oracle: the triangle built by repeated addition only.
    rows = [[1]]
    for k in range(1, 13):
        prev = rows[-1]
        rows.append([1] + [prev[j - 1] + prev[j] for j in range(1, k)] + [1])
    for k in range(13):
        assert combinatorics._binomial_row(k) == rows[k]
    assert combinatorics._binomial_row(10)[5] == 252 == rows[10][5]


def test_exact_div():
    assert exact_div(84, 12) == 7
    assert exact_div(-84, 12) == -7
    with pytest.raises(ExactDivisionError):
        exact_div(7, 2)


def test_euler_table_golden():
    rows = tuple(euler_rows(9))
    assert rows == EULER_ROWS
    assert sum(len(row) for row in rows) == 55


def test_euler_table_examples():
    assert tuple(euler_rows(3))[3][2] == 4
    assert tuple(euler_rows(9))[9][1] == 148329
    assert tuple(euler_rows(4))[4][0] == 9


def test_euler_table_recurrence_and_diagonal():
    table = tuple(euler_rows(20))
    for k in range(21):
        assert table[k][k] == math.factorial(k)
        for j in range(k):
            assert table[k][j] == table[k][j + 1] - table[k - 1][j]


def test_euler_entries_divisible_by_column_factorial():
    for k, row in enumerate(euler_rows(30)):
        for j, entry in enumerate(row):
            assert entry % math.factorial(j) == 0


def test_euler_table_bounds():
    # Rows 0..max_index and no more, row k of k + 1 entries.
    for max_index in (0, 4):
        assert [len(row) for row in euler_rows(max_index)] == list(range(1, max_index + 2))


def test_derangement_golden_all_methods():
    for values in derangement_routes(10).values():
        assert values == DERANGEMENTS
    assert tuple(derangement(k) for k in range(11)) == DERANGEMENTS


def test_derangement_seeds():
    for values in derangement_routes(1).values():
        assert values == (1, 0)
    assert derangement(0) == 1
    assert derangement(1) == 0


def test_derangement_methods_agree_to_30():
    routes = derangement_routes(30)
    assert routes["adjacent"] == routes["alternating"] == routes["table"]
    assert tuple(derangement(k) for k in range(31)) == routes["adjacent"]


def test_derangement_rejects_bad_input():
    with pytest.raises(ValueError):
        derangement(-1)
    # No route-selecting argument: the removed ``method`` stays removed.
    with pytest.raises(TypeError):
        derangement(3, "guess")


def test_enumeration_oracle_examples():
    assert derangement_enumeration_oracle(0) == 1
    assert derangement_enumeration_oracle(3) == 2
    assert derangement_enumeration_oracle(4) == 9


def test_enumeration_oracle_agrees_with_recurrences():
    for k in range(ENUMERATION_LIMIT + 1):
        assert derangement_enumeration_oracle(k) == derangement(k)


def test_enumeration_oracle_inspects_every_permutation(monkeypatch):
    # The rows of the blocks the oracle checks are every permutation of
    # range(k), each once, and its count is k! less the rows with a fixed
    # point, counted here row by row.  k = 0 builds no block (the examples).
    permutation_blocks = combinatorics._permutation_blocks
    checked = []

    def recording_blocks(k):
        blocks = permutation_blocks(k)
        checked.extend(row for block in blocks for row in zip(*block))
        return blocks

    monkeypatch.setattr(combinatorics, "_permutation_blocks", recording_blocks)
    for k in range(1, 9):
        checked.clear()
        result = derangement_enumeration_oracle(k)
        assert len(checked) == math.factorial(k), f"k={k}"
        assert set(checked) == set(permutations(range(k))), f"k={k}"
        with_fixed_point = sum(any(map(int.__eq__, row, range(k))) for row in checked)
        assert result == math.factorial(k) - with_fixed_point == DERANGEMENTS[k], f"k={k}"


def test_enumeration_oracle_cost_limit():
    with pytest.raises(ValueError, match="cost limit"):
        derangement_enumeration_oracle(11)


def test_higher_derangement_golden_table():
    assert tuple(higher_derangement_rows(9)) == HIGHER_ROWS
    for n, row in enumerate(HIGHER_ROWS):
        for k, value in enumerate(row):
            assert set(higher_derangement_routes(n, k).values()) == {value}, (n, k)


def test_higher_derangement_examples():
    assert higher_derangement(4, 2) == 7
    assert higher_derangement(9, 3) == 30637


def test_higher_derangement_derived_value():
    # Hand-checkable: the closed form at (10, 5) as a single division of a
    # binomial-weighted sum over the derangement table.
    total = (
        DERANGEMENTS[10]
        + 5 * DERANGEMENTS[9]
        + 10 * DERANGEMENTS[8]
        + 10 * DERANGEMENTS[7]
        + 5 * DERANGEMENTS[6]
        + DERANGEMENTS[5]
    )
    assert total % 120 == 0
    expected = total // 120
    assert expected == 18089
    assert higher_derangement(10, 5) == expected
    for value in higher_derangement_routes(10, 5).values():
        assert value == expected


def test_higher_derangement_methods_agree():
    for n in range(17):
        for k in range(n + 1):
            routes = higher_derangement_routes(n, k)
            assert routes["table"] == routes["recurrence"] == routes["closed_form"]
            assert routes["table"] == higher_derangement(n, k)


@st.composite
def higher_derangement_indices(draw):
    n = draw(st.integers(0, 60))
    return n, draw(st.integers(0, n))


@settings(max_examples=100, deadline=None)
@given(higher_derangement_indices())
def test_higher_derangement_matches_every_route(case):
    n, k = case
    value = higher_derangement(n, k)
    for route, expected in higher_derangement_routes(n, k).items():
        assert value == expected, route


def test_higher_derangement_table_invariants():
    # By 150 the entries run to hundreds of digits.
    table = tuple(higher_derangement_rows(150))
    base = tuple(euler_rows(150))
    for n in range(151):
        assert table[n][n] == 1
        if n >= 1:
            assert table[n][n - 1] == n - 1
        for k in range(n + 1):
            assert table[n][k] * math.factorial(k) == base[n][k]
            if 1 <= k <= n - 1:
                assert table[n][k] * k == table[n][k - 1] + table[n - 1][k - 1]


@pytest.mark.parametrize(
    "rows,table",
    [
        (euler_rows, combinatorics.euler_table),
        (higher_derangement_rows, combinatorics.higher_derangement_table),
    ],
)
def test_row_generators_validate_at_the_call(rows, table):
    # Raised by the call itself, before any row is drawn; the whole-table
    # binding the benchmark's traced run wraps raises the same message.
    with pytest.raises(ValueError, match=r"^max_index must be >= 0$"):
        rows(-1)
    with pytest.raises(ValueError, match=r"^max_index must be >= 0$"):
        table(-1)


def test_higher_derangement_domain_errors():
    with pytest.raises(ValueError):
        higher_derangement(3, 4)
    with pytest.raises(ValueError):
        higher_derangement(-1, 0)
    with pytest.raises(TypeError):
        higher_derangement(4, 2, "guess")


def reference_egf_coefficients(k, order):
    """The series as a sum of ``Fraction`` terms: sum (-1)^i x^i / i!
    convolved with sum C(m+k, k) x^m, term by term.  Reference for the
    integer convolution of ``egf_coefficients``."""
    coefficients = []
    for m in range(order + 1):
        total = Fraction(0)
        for i in range(m + 1):
            total += Fraction((-1) ** i, math.factorial(i)) * math.comb(m - i + k, k)
        coefficients.append(total)
    return tuple(coefficients)


@given(k=st.integers(0, 12), order=st.integers(0, 40))
def test_series_matches_fraction_convolution(k, order):
    assert egf_coefficients(k, order).coefficients == reference_egf_coefficients(k, order)


def test_series_examples():
    assert egf_coefficients(0, 4).coefficient(4) == Fraction(3, 8)
    assert egf_coefficients(2, 2).coefficient(2) == Fraction(7, 2)
    for k in range(9):
        assert egf_coefficients(k, 0).coefficient(0) == 1


def test_series_matches_higher_derangements():
    for k in range(9):
        series = egf_coefficients(k, 20)
        for m in range(21):
            assert series.coefficient(m) * math.factorial(m) == higher_derangement(m + k, k)


def test_series_fields_and_validation():
    series = egf_coefficients(3, 7)
    assert series.parameter == 3
    assert series.order == 7
    assert len(series.coefficients) == 8
    with pytest.raises(ValueError):
        series.coefficient(8)
    with pytest.raises(ValueError):
        egf_coefficients(-1, 4)
    with pytest.raises(ValueError):
        egf_coefficients(2, -1)
