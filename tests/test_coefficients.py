"""Coefficient rows: golden values, route agreement, rendering."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from adjoint_powers import (
    CoefficientRow,
    coefficient,
    coefficient_by_contraction,
    coefficient_row,
    decomposition_rows,
    decomposition_table,
    derangement,
    derangement_numbers,
    higher_derangement_rows,
)
from adjoint_powers import coefficients
from adjoint_powers.cli import run

# Reference decomposition rows for powers 1..10 (65 coefficients).
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


def test_golden_row_count():
    assert sum(len(values) for values in GOLDEN_ROWS.values()) == 65


def test_golden_rows_by_closed_form():
    for k, values in GOLDEN_ROWS.items():
        assert tuple(coefficient(k, j) for j in range(k + 1)) == values


def test_golden_rows_by_contraction():
    for k, values in GOLDEN_ROWS.items():
        assert tuple(coefficient_by_contraction(k, j) for j in range(k + 1)) == values


def test_golden_rows_by_recurrence():
    table = decomposition_table(10)
    for k, values in GOLDEN_ROWS.items():
        assert table.row(k).values == values


def test_coefficient_examples():
    assert coefficient(4, 2) == 42
    assert coefficient(10, 5) == 4558428
    for k in range(13):
        assert coefficient(k, k) == 1


def test_contraction_examples():
    assert coefficient_by_contraction(5, 3) == 130
    assert coefficient_by_contraction(2, 1) == 2
    assert coefficient_by_contraction(3, 3) == 1


def test_contraction_count_reads_the_sum_formula_of_the_higher_derangements(monkeypatch):
    # C(k, p) times d_k^p by its sum formula, looked up on combinatorics at
    # the call: a fault planted there reaches exactly the entry it touches.
    closed_form = coefficients.combinatorics._closed_form

    def off_by_one(n, binomials, derangements):
        return closed_form(n, binomials, derangements) + ((n, len(binomials) - 1) == (5, 3))

    monkeypatch.setattr(coefficients.combinatorics, "_closed_form", off_by_one)
    assert coefficient_by_contraction(5, 3) == 130 + 10
    assert coefficient_by_contraction(5, 2) == 320
    assert coefficient_by_contraction(4, 3) == 12


def test_recurrence_row_examples():
    table = decomposition_table(5)
    assert table.row(5).values == (44, 265, 320, 130, 20, 1)
    assert table.row(2).values[1] == 2
    for k in range(1, 6):
        assert table.row(k).values[0] == derangement(k)


def test_row_invariants():
    table = decomposition_table(20)
    for k in range(1, 21):
        row = table.row(k)
        assert row.power == k
        assert len(row.values) == k + 1
        assert row.values[0] == derangement(k)
        assert row.values[-1] == 1
        if k >= 2:
            assert all(v > 0 for v in row.values)


def test_routes_agree():
    table = decomposition_table(16)
    for k in range(1, 17):
        row = table.row(k).values
        for j in range(k + 1):
            assert coefficient(k, j) == coefficient_by_contraction(k, j) == row[j]


@st.composite
def coefficient_indices(draw):
    k = draw(st.integers(1, 60))
    return k, draw(st.integers(0, k))


@settings(max_examples=100, deadline=None)
@given(coefficient_indices())
def test_routes_agree_on_random_indices(case):
    k, j = case
    assert (
        coefficient(k, j)
        == coefficient_by_contraction(k, j)
        == coefficient_row(k).values[j]
        == decomposition_table(k).row(k).values[j]
    )


# The one closed-form body against the paper's closed form: C(k, j) times
# row k of the higher-derangement table.
@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 300))
def test_coefficient_row_is_the_closed_form(k):
    *_, higher_row = higher_derangement_rows(k)
    expected = [math.comb(k, j) * d for j, d in enumerate(higher_row)]
    assert coefficients._coefficient_row(k, 1) == expected


def test_division_free_row_law_of_the_higher_derangements():
    # The law the closed-form body's step is derived from, with its two seeds:
    # d_k^k = 1, d_k^{k-1} = k-1, d_k^{j-1} = (2j-k-1) d_k^j + (j+1)(k-j) d_k^{j+1}.
    for k, row in enumerate(higher_derangement_rows(200)):
        assert row[k] == 1
        if k:
            assert row[k - 1] == k - 1
        for j in range(1, k):
            assert row[j - 1] == (2 * j - k - 1) * row[j] + (j + 1) * (k - j) * row[j + 1]


def test_subleading_spot_law():
    for k in range(2, 31):
        assert coefficient(k, k - 1) == k * (k - 1)


def test_coefficient_row_admits_power_zero():
    assert coefficient_row(0) == CoefficientRow(0, (1,))
    assert coefficient_row(1).values == (0, 1)


def test_domain_errors():
    with pytest.raises(ValueError):
        coefficient(3, 4)
    with pytest.raises(ValueError):
        coefficient(-1, 0)
    with pytest.raises(ValueError):
        coefficient_by_contraction(2, 3)
    with pytest.raises(ValueError):
        decomposition_table(0)
    with pytest.raises(ValueError):
        coefficient_row(-1)
    with pytest.raises(ValueError):
        decomposition_table(3).row(4)


def test_decomposition_rows_validate_at_the_call():
    # Raised by the call itself, before any row is drawn, with the table's message.
    message = r"^max_power must be >= 1$"
    with pytest.raises(ValueError, match=message):
        decomposition_rows(0)
    with pytest.raises(ValueError, match=message):
        decomposition_table(0)


def test_recurrence_seeds_every_row_from_one_derangement_pass(monkeypatch):
    passes = []

    def counted():
        passes.append(len(passes))
        return derangement_numbers()

    monkeypatch.setattr(coefficients, "derangement_numbers", counted)
    table = decomposition_table(10)
    assert passes == [0]
    assert {row.power: row.values for row in table.rows} == GOLDEN_ROWS


# Rendering lives in the CLI: decomposition tables print through its one
# streaming row renderer, so these tests render via ``coeffs``.
def render(argv, capsys):
    code = run(["coeffs", *argv])
    return code, capsys.readouterr().out


def test_render_markdown_row(capsys):
    code, text = render(["--upto", "3", "--format", "markdown"], capsys)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "| k | j=0 | j=1 | j=2 | j=3 |"
    assert lines[1] == "| --- | --- | --- | --- | --- |"
    assert lines[-1] == "| 3 | 2 | 9 | 6 | 1 |"


def test_render_csv_rows(capsys):
    code, text = render(["--upto", "6", "--format", "csv"], capsys)
    assert code == 0
    table = decomposition_table(6)
    assert text.splitlines() == [
        ",".join(map(str, (row.power, *row.values))) for row in table.rows
    ]


def test_render_rejects_unknown_format(capsys):
    for argv in (["--upto", "2"], ["--k", "2"]):
        code, text = render([*argv, "--format", "latex"], capsys)
        assert code == 2
        assert text == ""
