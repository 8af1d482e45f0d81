"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them on success) and enforces the criterion's runtime budget.
"""

from itertools import islice
import math
import time

from adjoint_powers import combinatorics
from adjoint_powers import (
    coefficient,
    coefficient_by_contraction,
    decomposition_rows,
    derangement,
    derangement_enumeration_oracle,
    derangement_numbers,
    egf_coefficients,
    euler_rows,
    extract_stable_blocks,
    higher_derangement,
    higher_derangement_rows,
    verify_stable_decomposition,
)

DERANGEMENTS = (1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961)

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

GOLDEN_ROWS = {
    1: (0, 1),
    2: (1, 2, 1),
    3: (2, 9, 6, 1),
    4: (9, 44, 42, 12, 1),
    5: (44, 265, 320, 130, 20, 1),
    6: (265, 1854, 2715, 1420, 315, 30, 1),
    7: (1854, 14833, 25494, 16275, 4690, 651, 42, 1),
    8: (14833, 133496, 263284, 198184, 70070, 12712, 1204, 56, 1),
    9: (133496, 1334961, 2970288, 2573508, 1076544, 240534, 29904, 2052, 72, 1),
    10: (1334961, 14684570, 36377685, 35636040, 17199210, 4558428, 699930, 63240, 3285, 90, 1),
}

ORACLE_CONFIGS = ((2, 3), (3, 5), (3, 6), (4, 7))


def _criterion(number, name, budget_seconds, body):
    started = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - started
        assert elapsed < budget_seconds, (
            f"runtime {elapsed:.2f}s exceeds the {budget_seconds}s budget"
        )
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_golden_tables():
    def body():
        # The public function, then the alternating recurrence and column 0
        # of the difference table, the private routes of verify combinatorics.
        assert tuple(derangement(k) for k in range(11)) == DERANGEMENTS
        assert tuple(islice(combinatorics._alternating_derangements(), 11)) == DERANGEMENTS
        assert tuple(row[0] for row in euler_rows(10)) == DERANGEMENTS
        assert tuple(euler_rows(9)) == EULER_ROWS
        assert tuple(higher_derangement_rows(9)) == HIGHER_ROWS
        assert sum(len(r) for r in EULER_ROWS) == sum(len(r) for r in HIGHER_ROWS) == 55

    _criterion(1, "golden tables", 1.0, body)


def test_criterion_2_golden_coefficient_rows():
    def body():
        assert sum(len(v) for v in GOLDEN_ROWS.values()) == 65
        for k, values in GOLDEN_ROWS.items():
            assert tuple(coefficient(k, j) for j in range(k + 1)) == values
            assert tuple(coefficient_by_contraction(k, j) for j in range(k + 1)) == values
        assert {row.power: row.values for row in decomposition_rows(10)} == GOLDEN_ROWS

    _criterion(2, "coefficient rows by three routes", 1.0, body)


def test_criterion_3_cross_formula_sweep():
    def body():
        for k, row in decomposition_rows(30):
            for j in range(k + 1):
                assert coefficient(k, j) == coefficient_by_contraction(k, j) == row[j]
        # The public function against the three private routes, each built
        # as one whole table.
        derangements = list(islice(derangement_numbers(), 31))
        columns = list(combinatorics._recurrence_columns(30))
        for n, euler_row in enumerate(euler_rows(30)):
            table_row = combinatorics._table_route_row(euler_row)
            for k in range(n + 1):
                value = higher_derangement(n, k)
                assert value == table_row[k] == columns[k][n]
                binomials = combinatorics._binomial_row(k)
                assert value == combinatorics._closed_form(n, binomials, derangements)

    _criterion(3, "cross-formula equivalence sweep to 30", 5.0, body)


def test_criterion_4_enumeration_oracle():
    def body():
        for k in range(10):
            assert derangement(k) == derangement_enumeration_oracle(k)

    _criterion(4, "brute-force enumeration oracle to 9", 10.0, body)


def test_criterion_5_generating_functions():
    def body():
        for k in range(9):
            series = egf_coefficients(k, 20)
            for m in range(21):
                assert series.coefficient(m) * math.factorial(m) == higher_derangement(m + k, k)

    _criterion(5, "generating-function coefficients", 1.0, body)


def test_criterion_6_lie_certification():
    def body():
        for k_max, n in ORACLE_CONFIGS:
            report = verify_stable_decomposition(k_max, n)
            assert report.passed, f"certification failed at k_max={k_max}, n={n}"
            for check in report.checks:
                assert check.dimension_observed == ((n + 1) ** 2 - 1) ** check.power
                assert check.trivial_observed == derangement(check.power)
                assert check.leading_ok
                assert not check.negative_entries
                assert not check.residual
        low = extract_stable_blocks(3, 5)
        high = extract_stable_blocks(3, 7)
        assert low[2] == high[2], "block 2 differs between ranks 5 and 7"
        assert low[3] == high[3], "block 3 differs between ranks 5 and 7"

    _criterion(6, "representation-theoretic certification", 120.0, body)


def test_criterion_7_high_power_substitute():
    # Powers 5-10 are covered here by the route agreement of criteria 2-3
    # restricted to those powers, plus rank stability: the blocks of every
    # power k <= 6 are the same at ranks 2k-1 and 2k+1.  Criterion 8
    # certifies powers up to 10 with the oracle directly, at rank 19.
    def body():
        for k, row in islice(decomposition_rows(10), 4, None):  # powers 5..10
            for j in range(k + 1):
                assert coefficient(k, j) == coefficient_by_contraction(k, j) == row[j]
        assert extract_stable_blocks(3, 5) == extract_stable_blocks(3, 7)
        for k in range(1, 7):
            assert extract_stable_blocks(k, 2 * k - 1) == extract_stable_blocks(k, 2 * k + 1), (
                f"blocks up to {k} differ between ranks {2 * k - 1} and {2 * k + 1}"
            )

    _criterion(7, "high powers covered by route agreement and rank stability", 10.0, body)


def _certify_every_power(k_max, n):
    """Criterion body: every power up to k_max passes every check at rank n."""

    def body():
        report = verify_stable_decomposition(k_max, n)
        assert report.passed, f"certification failed at k_max={k_max}, n={n}"
        assert [check.power for check in report.checks] == list(range(k_max + 1))
        for check in report.checks:
            assert check.dimension_observed == ((n + 1) ** 2 - 1) ** check.power
            assert check.trivial_observed == derangement(check.power)
            assert check.leading_ok
            assert not check.negative_entries
            assert not check.residual

    return body


def test_criterion_8_oracle_to_power_10():
    # Power 10 needs rank >= 19 for the stable range 2k <= n+1.
    body = _certify_every_power(10, 19)
    _criterion(8, "oracle certification of every power up to 10", 15.0, body)


def test_criterion_9_oracle_to_power_13():
    # Power 13 at the smallest rank in its stable range.  Power 16, the
    # largest cli.ORACLE_KMAX_LIMIT admits, takes about seven times as long.
    body = _certify_every_power(13, 25)
    _criterion(9, "oracle certification of every power up to 13", 10.0, body)
