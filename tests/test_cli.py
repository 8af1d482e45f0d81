"""CLI contract: exact output, formats, exit codes, JSON round trips."""

import decimal
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from decimal import Decimal, Inexact
from itertools import count, islice
from pathlib import Path

import pytest
from conftest import (
    plant_dropped_label,
    plant_dual_swap,
    plant_miscounted_coefficient,
)
from hypothesis import given, settings, strategies as st

from adjoint_powers import (
    PowerCheck,
    StableLabel,
    VerificationReport,
    coefficient,
    derangement,
    derangement_numbers,
    euler_rows,
    higher_derangement_rows,
    verify_stable_decomposition,
)
from adjoint_powers import cli, coefficients, combinatorics
from adjoint_powers.cli import run
from adjoint_powers.serialize import canonical_json


def invoke(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_derangement_eleven_values(capsys):
    code, out, _ = invoke(["table", "derangement", "--max", "10", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert lines[0] == "0,1"
    assert lines[6] == "6,265"
    assert lines[10] == "10,1334961"
    # d_2000 has 5,736 digits, beyond CPython's default int-to-str limit,
    # which ``run`` restores on return: the reference prints through Decimal.
    code, out, _ = invoke(["table", "derangement", "--max", "2000", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2001
    assert lines[-1] == f"2000,{Decimal(derangement(2000))}"


def test_table_euler_csv(capsys):
    code, out, _ = invoke(["table", "euler", "--max", "4", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[4] == "4,9,11,14,18,24"


def test_table_higher_markdown(capsys):
    code, out, _ = invoke(["table", "higher", "--max", "4"], capsys)
    assert code == 0
    assert "| 4 | 9 | 11 | 7 | 3 | 1 |" in out.splitlines()


def printed(rows):
    return [list(map(str, row)) for row in rows]


# The tables print the kernels' Decimal rows: every digit must be the int's.
@settings(max_examples=25, deadline=None)
@given(size=st.integers(0, 80))
def test_decimal_rows_print_as_the_int_rows(size):
    with cli._exact_decimals() as one:
        assert printed(combinatorics._euler_rows(size, one)) == printed(euler_rows(size))
        assert printed(combinatorics._higher_derangement_rows(size, one)) == printed(
            higher_derangement_rows(size)
        )
        derangements = islice(combinatorics._derangement_numbers(one), size + 1)
        assert list(map(str, derangements)) == list(
            map(str, islice(derangement_numbers(), size + 1))
        )


# ``coeffs --upto`` prints the closed-form body's Decimal rows: every digit
# must be the private recurrence's.
@settings(max_examples=25, deadline=None)
@given(size=st.integers(1, 60))
def test_decimal_closed_form_rows_print_as_the_recurrence_rows(size):
    with cli._exact_decimals() as one:
        closed_form = printed(coefficients._coefficient_row(k, one) for k in range(size + 1))
    assert closed_form == printed(row.values for row in coefficients._decomposition_rows(size))


def test_exact_context_traps_every_rounding():
    # Under MAX_PREC an inexact quotient such as Decimal(1) / 3 is never
    # reached: libmpdec fails to allocate its MAX_PREC digits first
    # (MemoryError), so rounding is provoked without a division here.
    with cli._exact_decimals() as one:
        assert one == 1 and type(one) is Decimal
        context = decimal.getcontext()
        assert context.prec == decimal.MAX_PREC
        assert (context.Emax, context.Emin) == (decimal.MAX_EMAX, decimal.MIN_EMIN)
        with pytest.raises(Inexact):
            Decimal("0.5").to_integral_exact()
        with pytest.raises(decimal.Rounded):
            Decimal("2.0").quantize(Decimal(1))  # rounds off a zero: exact, yet Rounded
        with pytest.raises(decimal.DivisionByZero):
            Decimal(1) / 0
        big = Decimal(10) ** 100_000
        assert big * 7 - big == 6 * big  # integers of any size stay exact


def test_table_command_leaves_the_decimal_context_as_it_was(capsys):
    before = decimal.getcontext()
    state = repr(before)
    code, out, _ = invoke(["table", "higher", "--max", "30", "--format", "csv"], capsys)
    assert code == 0 and out
    assert decimal.getcontext() is before
    assert repr(before) == state


def test_coeffs_single_row_csv(capsys):
    code, out, _ = invoke(["coeffs", "--k", "6", "--format", "csv"], capsys)
    assert code == 0
    assert out == "265,1854,2715,1420,315,30,1\n"


def test_coeffs_upto_csv(capsys):
    code, out, _ = invoke(["coeffs", "--upto", "3", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["1,0,1", "2,1,2,1", "3,2,9,6,1"]


def test_coeffs_upto_markdown(capsys):
    code, out, _ = invoke(["coeffs", "--upto", "3"], capsys)
    assert code == 0
    assert "| 3 | 2 | 9 | 6 | 1 |" in out.splitlines()


def test_coeffs_upto_json_keeps_big_integers_as_strings(capsys):
    code, out, _ = invoke(["coeffs", "--upto", "25", "--format", "json"], capsys)
    assert code == 0
    row25 = json.loads(out)["rows"][24]
    assert row25["k"] == 25
    assert all(isinstance(v, str) for v in row25["coefficients"])
    # c_1^25 exceeds 64-bit range; the decimal string must survive parsing.
    assert int(row25["coefficients"][1]) == coefficient(25, 1) > 2**63


def test_coeffs_flags_are_exclusive(capsys):
    code, _, _ = invoke(["coeffs", "--k", "2", "--upto", "3"], capsys)
    assert code == 2


def test_series_csv(capsys):
    code, out, _ = invoke(["series", "--k", "2", "--order", "4", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["0,1", "1,2", "2,7/2", "3,16/3", "4,181/24"]
    code, out, _ = invoke(["series", "--k", "0", "--order", "4", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[4] == "4,3/8"


def test_series_rejects_negative(capsys):
    code, _, err = invoke(["series", "--k", "-1", "--order", "4"], capsys)
    assert code == 2
    assert "nonnegative" in err


def test_verify_combinatorics_passes(capsys):
    code, out, _ = invoke(["verify", "combinatorics", "--max", "12"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "result: PASS"
    assert all(line.startswith("ok ") for line in out.splitlines()[:-1])


def test_verify_combinatorics_full_sweep(capsys):
    code, out, _ = invoke(["verify", "combinatorics", "--max", "30"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "result: PASS"


def test_verify_combinatorics_records_value_error_as_failure(capsys, monkeypatch):
    # The closed-form route's body, which the sweep calls once per entry.
    def out_of_domain(n, binomials, derangements):
        raise ValueError(f"planted domain error at ({n}, {len(binomials) - 1})")

    monkeypatch.setattr("adjoint_powers.cli.combinatorics._closed_form", out_of_domain)
    code, out, _ = invoke(["verify", "combinatorics", "--max", "4"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert "FAIL higher derangement routes agree (0..4): domain error: planted domain error at (0, 0)" in lines
    assert lines[-1] == "result: FAIL"


def test_verify_combinatorics_checks_the_printed_higher_table(capsys, monkeypatch):
    # The rows ``table higher`` prints are one of the routes compared, and
    # the series check reads its d_{m+k}^k from them.
    rows = cli.combinatorics.higher_derangement_rows

    def off_by_one(max_index):
        for n, row in enumerate(rows(max_index)):
            yield (row[0], row[1] + 1, *row[2:]) if n == 3 else row

    monkeypatch.setattr("adjoint_powers.cli.combinatorics.higher_derangement_rows", off_by_one)
    code, out, _ = invoke(["verify", "combinatorics", "--max", "4"], capsys)
    assert code == 1
    failures = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failures == [
        "FAIL higher derangement routes agree (0..4): (n,k)=(3,1)",
        "FAIL series coefficients match higher derangements (k<=min(4,8), m<=20): (k,m)=(1,2)",
    ]


def bump_table_route(original):
    def planted(euler_row):
        row = original(euler_row)
        return (row[0], row[1] + 1, *row[2:]) if len(row) == 4 else row

    return planted


def bump_recurrence_route(original):
    def planted(max_index):
        for k, column in enumerate(original(max_index)):
            yield [value + (k == 2 and n == 4) for n, value in enumerate(column)]

    return planted


def bump_closed_form(original):
    def planted(n, binomials, derangements):
        return original(n, binomials, derangements) + ((n, len(binomials) - 1) == (4, 3))

    return planted


def bump_alternating_route(original):
    def planted():
        for k, value in enumerate(original()):
            yield value + (k == 3)

    return planted


def bump_coefficient_row(original):
    def planted(k, one):
        row = original(k, one)
        return [row[0], row[1] + 1, *row[2:]] if k == 3 else row

    return planted


def bump_higher_kernel(original):
    def planted(max_index, one):
        for row in original(max_index, one):
            yield (row[0], row[1] + 1, *row[2:]) if len(row) == 4 else row

    return planted


def bump_decomposition_row(original):
    def planted(max_power):
        for row in original(max_power):
            yield row._replace(values=(*row.values[:3], row.values[3] + 1)) if row.power == 3 else row

    return planted


def drop_a_derangement(original):
    # Block 0 of k = 4 ends with (3, 0, 1, 2), which has no fixed point.
    def planted(k):
        blocks = original(k)
        if k == 4:
            blocks[0] = [column[:-1] for column in blocks[0]]
        return blocks

    return planted


# (module, route body, planted wrong entry, FAIL lines of ``verify combinatorics --max 4``).
# The table route also feeds the closed form weighted by math.comb; the
# higher-derangement kernel feeds the series check; the closed-form body builds the
# rows ``coeffs --k`` and ``coeffs --upto`` print, from no table; the recurrence
# stream, seed row (1,) first, is the third coefficient route; the block builder
# feeds the enumeration oracle.  The sum formula is swept once, as a higher-derangement
# route: the coefficient routes compare no contraction sum of their own.
PLANTED_ROUTES = [
    pytest.param(
        "combinatorics", "_alternating_derangements", bump_alternating_route,
        ["FAIL derangement routes agree (0..4): k=3"],
        id="alternating",
    ),
    pytest.param(
        "combinatorics", "_table_route_row", bump_table_route,
        [
            "FAIL higher derangement routes agree (0..4): (n,k)=(3,1)",
            "FAIL coefficient routes agree (0..4): (k,j)=(3,1)",
        ],
        id="table",
    ),
    pytest.param(
        "combinatorics", "_higher_derangement_rows", bump_higher_kernel,
        [
            "FAIL higher derangement routes agree (0..4): (n,k)=(3,1)",
            "FAIL series coefficients match higher derangements (k<=min(4,8), m<=20): (k,m)=(1,2)",
        ],
        id="higher",
    ),
    pytest.param(
        "coefficients", "_coefficient_row", bump_coefficient_row,
        ["FAIL coefficient routes agree (0..4): (k,j)=(3,1)"],
        id="coefficient_row",
    ),
    pytest.param(
        "coefficients", "_decomposition_rows", bump_decomposition_row,
        ["FAIL coefficient routes agree (0..4): (k,j)=(3,3)"],
        id="decomposition_rows",
    ),
    pytest.param(
        "combinatorics", "_recurrence_columns", bump_recurrence_route,
        ["FAIL higher derangement routes agree (0..4): (n,k)=(4,2)"],
        id="recurrence",
    ),
    pytest.param(
        "combinatorics", "_closed_form", bump_closed_form,
        ["FAIL higher derangement routes agree (0..4): (n,k)=(4,3)"],
        id="closed_form",
    ),
    pytest.param(
        "combinatorics", "_permutation_blocks", drop_a_derangement,
        ["FAIL enumeration oracle matches (0..4): k=4"],
        id="enumeration",
    ),
]


@pytest.mark.parametrize("module,name,plant,failures", PLANTED_ROUTES)
def test_planted_wrong_entry_fails_its_route(module, name, plant, failures, capsys, monkeypatch):
    # Every route's whole-table sweep is compared entry by entry.
    owner = getattr(cli, module)
    monkeypatch.setattr(owner, name, plant(getattr(owner, name)))
    code, out, _ = invoke(["verify", "combinatorics", "--max", "4"], capsys)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == failures


def test_verify_combinatorics_checks_the_printed_coefficient_rows(capsys, monkeypatch):
    # The rows ``coeffs --upto`` and ``coeffs --k`` print are one of the routes compared.
    coefficient_row = cli.coefficients._coefficient_row

    def off_by_one(k, one):
        row = coefficient_row(k, one)
        if k == 3:
            row[2] += 1
        return row

    monkeypatch.setattr("adjoint_powers.cli.coefficients._coefficient_row", off_by_one)
    code, out, _ = invoke(["verify", "combinatorics", "--max", "4"], capsys)
    assert code == 1
    failures = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failures == ["FAIL coefficient routes agree (0..4): (k,j)=(3,2)"]
    assert out.splitlines()[-1] == "result: FAIL"


# The planted fault of the test above, in a child run under ``python -O``,
# which strips assert statements: the checks must still fail there.
PLANT_AND_VERIFY_UNDER_O = """
import sys
from adjoint_powers import cli

assert False, "-O is not in effect"
coefficient_row = cli.coefficients._coefficient_row


def off_by_one(k, one):
    row = coefficient_row(k, one)
    if k == 3:
        row[2] += 1
    return row


cli.coefficients._coefficient_row = off_by_one
sys.exit(cli.run(["verify", "combinatorics", "--max", "4"]))
"""


def test_verify_combinatorics_fails_under_optimize():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-O", "-c", PLANT_AND_VERIFY_UNDER_O],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 1, result.stderr
    lines = result.stdout.splitlines()
    assert "FAIL coefficient routes agree (0..4): (k,j)=(3,2)" in lines
    assert lines[-1] == "result: FAIL"


def test_verify_combinatorics_checks_the_printed_power_zero_row(capsys, monkeypatch):
    # ``coeffs --k 0`` prints row 0 of the closed-form body; the recurrence
    # has no row 0, so the closed form alone is compared with it.
    coefficient_row = cli.coefficients._coefficient_row

    def planted(k, one):
        return [2 * one] if k == 0 else coefficient_row(k, one)

    monkeypatch.setattr(cli.coefficients, "_coefficient_row", planted)
    assert invoke(["coeffs", "--k", "0", "--format", "csv"], capsys) == (0, "2\n", "")
    code, out, _ = invoke(["verify", "combinatorics", "--max", "4"], capsys)
    assert code == 1
    failures = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failures == ["FAIL coefficient routes agree (0..4): (k,j)=(0,0)"]
    code, out, _ = invoke(["verify", "combinatorics", "--max", "0"], capsys)
    assert code == 1
    assert "FAIL coefficient routes agree (0..0): (k,j)=(0,0)" in out.splitlines()


def test_coeffs_k_prints_the_last_row_of_coeffs_upto(capsys):
    # One closed-form body prints both forms; the CSV of ``coeffs --upto``
    # leads each row with its power, which ``coeffs --k`` leaves out.
    for k in range(1, 41):
        _, single, _ = invoke(["coeffs", "--k", str(k), "--format", "csv"], capsys)
        _, rows, _ = invoke(["coeffs", "--upto", str(k), "--format", "csv"], capsys)
        power, last = rows.splitlines()[-1].split(",", 1)
        assert (power, single) == (str(k), last + "\n")
    assert invoke(["coeffs", "--k", "0", "--format", "csv"], capsys) == (0, "1\n", "")


def test_verify_oracle_passes(capsys):
    code, out, err = invoke(["verify", "oracle", "--kmax", "2", "--n", "3"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "result: PASS"
    assert "verified k_max=2 rank=3" in err


def test_verify_oracle_range_violation(capsys):
    code, _, err = invoke(["verify", "oracle", "--kmax", "3", "--n", "3"], capsys)
    assert code == 2
    assert "stable range" in err


def test_verify_oracle_failure_maps_to_exit_one(capsys, monkeypatch):
    failing = VerificationReport(
        k_max=1,
        rank=3,
        checks=[
            PowerCheck(
                power=1,
                dimension_expected=15,
                dimension_observed=14,
                trivial_expected=0,
                trivial_observed=0,
                residual={},
            )
        ],
    )
    monkeypatch.setattr(
        "adjoint_powers.cli.lie.verify_stable_decomposition", lambda *a: failing
    )
    code, out, _ = invoke(["verify", "oracle", "--kmax", "1", "--n", "3"], capsys)
    assert code == 1
    assert "dimension mismatch: expected 15, observed 14" in out
    assert out.splitlines()[-1] == "result: FAIL"


@pytest.mark.parametrize(
    "name,plant",
    [
        # Power 1 also holds the defining representation, off the root lattice.
        (
            "tensor_with_adjoint",
            lambda step: lambda state, n: {**step(state, n), bytes((1,) + (0,) * (n - 1)): 1},
        ),
        # D(N) off by one leaves a remainder in a label's Weyl quotient.
        ("_partition_dimension", lambda dim: lambda parts, rows: dim(parts, rows) + 1),
    ],
    ids=["off-lattice label", "inexact dimension"],
)
def test_oracle_arithmetic_fault_exits_one_without_a_report(name, plant, capsys, monkeypatch):
    # The oracle raises on these two faults instead of reporting them.
    monkeypatch.setattr(cli.lie, name, plant(getattr(cli.lie, name)))
    code, out, err = invoke(["verify", "oracle", "--kmax", "2", "--n", "3"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("verification failure:")


def test_planted_dual_swap_fails_the_oracle_command(capsys, monkeypatch):
    # A dual swap at power 5 keeps every check but the label-by-label comparison.
    plant_dual_swap(monkeypatch)
    code, out, _ = invoke(["verify", "oracle", "--kmax", "5", "--n", "9"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[-4:] == [
        f"k=5 FAIL dimension={99**5} trivial=44",
        "  residual ([4, 1],[5]): expected 4, observed 5",
        "  residual ([5],[4, 1]): expected 4, observed 3",
        "result: FAIL",
    ]
    assert [line.split()[1] for line in lines[1:6]] == ["ok"] * 5
    code, out, _ = invoke(["verify", "oracle", "--kmax", "5", "--n", "9", "--format", "json"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert [check["k"] for check in payload["checks"] if check["residual"]] == [5]
    assert payload["checks"][5]["residual"] == [
        {"label": [[4, 1], [5]], "expected": "4", "observed": "5"},
        {"label": [[5], [4, 1]], "expected": "4", "observed": "3"},
    ]


# Five planted faults at (kmax, n), four kinds, with the sha256 of the JSON
# report each printed while the text report still named a label twice.
PLANTED_REPORTS = [
    pytest.param(
        4, 7, lambda mp: plant_miscounted_coefficient(mp, -1),
        "3911d9cd0942cb472fa5f3044c420bdc674632147b0cc637f6fd86aefa60ad10",
        id="c(4,2)-1",
    ),
    pytest.param(
        4, 7, lambda mp: plant_miscounted_coefficient(mp, 1),
        "0500db8ef0181efd7ac206919f5b521a236027d09d68151a46c7ce2755c06546",
        id="c(4,2)+1",
    ),
    pytest.param(
        5, 9, plant_dual_swap,
        "d795ef73480517f430381e68d0d638495c95b30659edd91869665517ff9db79b",
        id="dual swap",
    ),
    pytest.param(
        4, 7, lambda mp: plant_dropped_label(mp, StableLabel((3, 1), (2, 2)), 7),
        "19bd0cbec0069e236f881e58de60a3c2d4db008506d8f1ddd78191be55df31bc",
        id="dropped label",
    ),
    pytest.param(
        4, 7, lambda mp: plant_dropped_label(mp, StableLabel((4,), (4,)), 7),
        "c2d59ba680035e75ee1484e3016eec2b465b0da6037d495ab8db69fe44507a22",
        id="missing leading label",
    ),
]


@pytest.mark.parametrize("kmax,n,plant,digest", PLANTED_REPORTS)
def test_failing_report_names_each_mismatched_label_once(
    kmax, n, plant, digest, capsys, monkeypatch
):
    plant(monkeypatch)
    checks = verify_stable_decomposition(kmax, n).checks
    (failing,) = [check for check in checks if not check.passed]
    argv = ["verify", "oracle", "--kmax", str(kmax), "--n", str(n)]
    code, out, _ = invoke(argv, capsys)
    assert code == 1
    # Every label the text names, as ([...],[...]), is a residual label, named once.
    named = Counter(re.findall(r"\(\[[^()]*\]\)", out))
    assert named == Counter(map(cli._label_text, failing.residual))
    code, out, _ = invoke([*argv, "--format", "json"], capsys)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_report_payload_reads_leading_and_negative_entries_from_the_residual():
    # The record stores neither, so neither can disagree with the residual:
    # the leading label [(k), (k)] must not be in it, and a label of fewer
    # than k boxes a side held fewer times than predicted is a negative
    # entry, observed - expected, of block k.
    leading, short = StableLabel((2,), (2,)), StableLabel((1,), (1,))
    full = StableLabel((1, 1), (2,))

    def read(residual):
        check = PowerCheck(2, 15**2, 15**2, 1, 1, residual)
        (payload,) = cli._report_payload(VerificationReport(2, 3, [check]))["checks"]
        assert not hasattr(check, "leading_ok") and not hasattr(check, "negative_entries")
        return payload["leading_ok"], payload["negative_entries"]

    assert read({short: (4, 1), full: (1, 0)}) == (
        True, [{"label": [[1], [1]], "multiplicity": "-3"}]
    )
    assert read({leading: (1, 0), short: (4, 6)}) == (False, [])


def test_verify_report_payload():
    # The oracle report's JSON form is built in the CLI, as every record's is.
    report = verify_stable_decomposition(2, 4)
    payload = cli._report_payload(report)
    assert payload["passed"] is True
    assert payload["k_max"] == 2 and payload["rank"] == 4
    for check in payload["checks"]:
        assert isinstance(check["dimension_observed"], str)
        assert isinstance(check["trivial_expected"], str)
        assert check["residual"] == [] and check["negative_entries"] == []
    text = canonical_json(payload)
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text


def test_report_payload_names_failed_labels_as_partition_pairs():
    # The leading label missing, and a 2-box label held once against 3.
    leading, label = StableLabel((3,), (3,)), StableLabel((1, 1), (2,))
    check = PowerCheck(
        power=3,
        dimension_expected=63**3,
        dimension_observed=63**3,
        trivial_expected=2,
        trivial_observed=2,
        residual={leading: (1, 0), label: (3, 1)},
    )
    (payload,) = cli._report_payload(VerificationReport(3, 7, [check]))["checks"]
    assert payload["leading_ok"] is False
    assert payload["negative_entries"] == [{"label": [[1, 1], [2]], "multiplicity": "-2"}]
    assert payload["residual"] == [
        {"label": [[1, 1], [2]], "expected": "3", "observed": "1"},
        {"label": [[3], [3]], "expected": "1", "observed": "0"},
    ]


JSON_COMMANDS = [
    ["table", "euler", "--max", "6", "--format", "json"],
    ["table", "derangement", "--max", "10", "--format", "json"],
    ["table", "higher", "--max", "6", "--format", "json"],
    ["coeffs", "--k", "7", "--format", "json"],
    ["coeffs", "--upto", "7", "--format", "json"],
    ["series", "--k", "3", "--order", "8", "--format", "json"],
    ["verify", "combinatorics", "--max", "8", "--format", "json"],
    ["verify", "oracle", "--kmax", "2", "--n", "4", "--format", "json"],
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda argv: " ".join(argv))
def test_json_round_trips(argv, capsys):
    code, out, _ = invoke(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "euler", "--max", "9", "--format", "csv"],
        ["coeffs", "--upto", "8", "--format", "markdown"],
        ["coeffs", "--upto", "8", "--format", "csv"],
        ["coeffs", "--upto", "10", "--format", "json"],
        ["verify", "oracle", "--kmax", "2", "--n", "5", "--format", "json"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_output_is_deterministic(argv, capsys):
    first = invoke(argv, capsys)
    second = invoke(argv, capsys)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


def test_streamed_json_matches_json_dumps_at_scale(capsys):
    reference = {
        "max_index": 120,
        "rows": [
            {"k": k, "entries": [str(v) for v in row]} for k, row in enumerate(euler_rows(120))
        ],
    }
    code, out, _ = invoke(["table", "euler", "--max", "120", "--format", "json"], capsys)
    assert code == 0
    assert out == json.dumps(reference, indent=2, sort_keys=True) + "\n"
    reference = {
        "max_power": 120,
        "rows": [
            {"k": row.power, "coefficients": [str(v) for v in row.values]}
            for row in islice(coefficients._decomposition_rows(120), 1, None)
        ],
    }
    code, out, _ = invoke(["coeffs", "--upto", "120", "--format", "json"], capsys)
    assert code == 0
    assert out == json.dumps(reference, indent=2, sort_keys=True) + "\n"


def counting_rows(rows, record):
    """Wrap a row generator: ``record(n)`` runs as its n-th row is drawn."""

    def wrapped(*args):
        source = rows(*args)

        def draw():
            for n, row in enumerate(source, start=1):
                record(n)
                yield row

        return draw()

    return wrapped


def counting_builds(build, record):
    """Wrap a one-row body: ``record(n)`` runs as its n-th row is built."""
    calls = count(1)

    def wrapped(*args):
        record(next(calls))
        return build(*args)

    return wrapped


# (command, module, attribute that makes its rows, its wrapper, text of the
# first printed row, rows made); the table commands draw from row generators and
# ``coeffs --upto`` builds each row alone, all run on Decimal.
STREAMED_COMMANDS = [
    ("table euler --max 4 --format json", "combinatorics", "_euler_rows", counting_rows, '"k": 0\n    }', 5),
    ("table higher --max 4 --format json", "combinatorics", "_higher_derangement_rows", counting_rows, '"n": 0\n    }', 5),
    ("coeffs --upto 5 --format json", "coefficients", "_coefficient_row", counting_builds, '"k": 1\n    }', 5),
    ("table euler --max 4 --format csv", "combinatorics", "_euler_rows", counting_rows, "0,1\n", 5),
    ("coeffs --upto 5 --format markdown", "coefficients", "_coefficient_row", counting_builds, "| 1 | 0 | 1 |\n", 5),
]


@pytest.mark.parametrize(
    "command,module,name,wrap,first_row,made", STREAMED_COMMANDS, ids=[c[0] for c in STREAMED_COMMANDS]
)
def test_rows_are_written_before_the_last_is_drawn(
    command, module, name, wrap, first_row, made, monkeypatch
):
    out = io.StringIO()
    written_before = {}

    def record(n):
        written_before[n] = out.getvalue()

    owner = getattr(cli, module)
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name), record))
    monkeypatch.setattr(sys, "stdout", out)
    assert run(command.split()) == 0
    last = max(written_before)
    assert last == made
    assert first_row in written_before[last]
    assert out.getvalue().startswith(written_before[last])
    assert first_row not in written_before[1]


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_row_generator_domain_error_exits_two_before_any_output(fmt, capsys):
    code, out, err = invoke(["coeffs", "--upto", "0", "--format", fmt], capsys)
    assert code == 2
    assert out == ""
    assert "error: --upto must be >= 1, got 0" in err


@pytest.mark.parametrize(
    "command",
    [
        "table euler --max 300 --format csv",
        "table higher --max 400 --format json",
        "coeffs --upto 300",
    ],
)
def test_reader_closing_stdout_early_exits_141_without_traceback(command):
    # Like ``| head -1``: each command prints megabytes, far more than a pipe
    # holds, so its writes fail once the reader has gone.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    with subprocess.Popen(
        [sys.executable, "-m", "adjoint_powers", *command.split()],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as process:
        assert process.stdout.readline()
        process.stdout.close()
        err = process.stderr.read().decode()
        assert process.wait(timeout=60) == 141
    assert err == ""  # no BrokenPipeError traceback


def test_usage_errors_exit_two(capsys):
    assert invoke(["tables"], capsys)[0] == 2
    assert invoke(["table", "euler"], capsys)[0] == 2
    assert invoke(["coeffs"], capsys)[0] == 2
    assert invoke(["table", "euler", "--max", "-3"], capsys)[0] == 2
    assert invoke(["verify", "oracle", "--kmax", "1", "--n", "0"], capsys)[0] == 2
    assert invoke(["coeffs", "--upto", "3", "--format", "latex"], capsys)[0] == 2


# One request just above each cost limit; every other argument is small.
OVERSIZED = [
    ("TABLE_LIMIT", "table euler --max {}"),
    ("TABLE_LIMIT", "table higher --max {}"),
    ("DERANGEMENT_TABLE_LIMIT", "table derangement --max {}"),
    ("COEFFS_K_LIMIT", "coeffs --k {}"),
    ("COEFFS_UPTO_LIMIT", "coeffs --upto {}"),
    ("SERIES_K_LIMIT", "series --k {} --order 2"),
    ("SERIES_ORDER_LIMIT", "series --k 2 --order {}"),
    ("COMBINATORICS_LIMIT", "verify combinatorics --max {}"),
    ("ORACLE_KMAX_LIMIT", "verify oracle --kmax {} --n 99"),
    ("ORACLE_RANK_LIMIT", "verify oracle --kmax 1 --n {}"),
]


@pytest.mark.parametrize(
    "limit,template", OVERSIZED, ids=[t.format(name) for name, t in OVERSIZED]
)
def test_request_above_cost_limit_exits_two(limit, template, capsys):
    value = getattr(cli, limit)
    code, out, err = invoke(template.format(value + 1).split(), capsys)
    assert code == 2
    assert out == ""
    assert f"{value + 1} exceeds the cost limit" in err
    assert f"<= {value})" in err


# One request with a size argument below its bound, with the exact stderr
# line.  ``series`` holds both arguments to their lower bound before either
# to its cost limit, so its double fault names ``--order``.
UNDERSIZED = [
    ("table euler --max -1", "error: --max must be nonnegative, got -1"),
    ("table derangement --max -1", "error: --max must be nonnegative, got -1"),
    ("coeffs --k -1", "error: --k must be nonnegative, got -1"),
    ("series --k -1 --order 4", "error: --k must be nonnegative, got -1"),
    ("series --k 2 --order -1", "error: --order must be nonnegative, got -1"),
    ("series --k 5000 --order -1", "error: --order must be nonnegative, got -1"),
    ("verify combinatorics --max -1", "error: --max must be nonnegative, got -1"),
    ("verify oracle --kmax -1 --n 3", "error: --kmax must be nonnegative, got -1"),
    ("verify oracle --kmax 1 --n 0", "error: --n must be >= 1, got 0"),
    # A low value is named before another argument's cost limit.
    ("verify oracle --kmax -1 --n 500", "error: --kmax must be nonnegative, got -1"),
    ("verify oracle --kmax 20 --n 0", "error: --n must be >= 1, got 0"),
]


@pytest.mark.parametrize("command,message", UNDERSIZED, ids=[c for c, _ in UNDERSIZED])
def test_request_below_its_bound_exits_two_with_its_message(command, message, capsys):
    assert invoke(command.split(), capsys) == (2, "", message + "\n")


# The README's cost-limit table, row by row: the argument cell and the
# limits it lists, in order.
README_LIMIT_ROWS = {
    "`table euler\\|higher --max`": ("TABLE_LIMIT",),
    "`table derangement --max`": ("DERANGEMENT_TABLE_LIMIT",),
    "`coeffs --k`": ("COEFFS_K_LIMIT",),
    "`coeffs --upto`": ("COEFFS_UPTO_LIMIT",),
    "`series --k` / `--order`": ("SERIES_K_LIMIT", "SERIES_ORDER_LIMIT"),
    "`verify combinatorics --max`": ("COMBINATORICS_LIMIT",),
    "`verify oracle --kmax` / `--n`": ("ORACLE_KMAX_LIMIT", "ORACLE_RANK_LIMIT"),
}


def test_readme_cost_limits_match_cli():
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| argument | limit |") + 2  # skip the header rule
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        argument, limits = (cell.strip() for cell in line.strip("|").rsplit("|", 1))
        table[argument] = tuple(int(v) for v in limits.split(" / "))
    assert table == {
        argument: tuple(getattr(cli, name) for name in names)
        for argument, names in README_LIMIT_ROWS.items()
    }
    limits = {name for name in dir(cli) if name.endswith("_LIMIT")}
    assert limits == {name for names in README_LIMIT_ROWS.values() for name in names}


def test_help_exits_zero(capsys):
    assert invoke(["--help"], capsys)[0] == 0


# Exit code and stdout sha256 of every README command in every format, plus
# the smallest request of each command: stdout bytes are part of the CLI
# contract.
GOLDEN_DIGESTS = [
    ("table euler --max 9 --format markdown", 0, "c6aeed3500ecc495f14ea91cccaa3f71ae74cafa43f301bf8295d72fc7c2154e"),
    ("table euler --max 9 --format csv", 0, "9bbff5f1fdb83232d4ad9436d37eef9ee74e665eb0261324ca3448a343e6c2ea"),
    ("table euler --max 9 --format json", 0, "7232b8e8bf1ff0eb748623bea86fd200f8ed8ff22b39a5d2793e1d3bc4efb8c4"),
    ("table derangement --max 10 --format markdown", 0, "cc418116f6e2f872dd406a10c9ce3812d5a3f479a8527ccbc00b20f79704e6f1"),
    ("table derangement --max 10 --format csv", 0, "698685926dded6c994550fc5f0542368cfb52c6cd33ccce0c550569df62417e9"),
    ("table derangement --max 10 --format json", 0, "52f6243fb9cf056d35e46cdf05f34601d4073c7ad33edbb4e7b4d6cfe5fb99de"),
    ("table higher --max 9 --format markdown", 0, "4095193f0804de2089c020233ae31dd7c45e3c5e9ac447c6f52e442c15e808a9"),
    ("table higher --max 9 --format csv", 0, "2757e23420034d3c6df1fd86276a71e84fc4e49fdd6d05f2740f6da8e96218a6"),
    ("table higher --max 9 --format json", 0, "61e5439e264430e19e8bc0dec4b930293ed6ebd6a8f68da432d922d0060057e2"),
    ("coeffs --k 6 --format markdown", 0, "da7e7802635f9d6d1ec1b287c046f012102f59cd25f3b0437eb41e697cb52b14"),
    ("coeffs --k 6 --format csv", 0, "50a7e23a797d65dea1063eadb7f40a56c0712083e81cd1569abfaa4407d76bb3"),
    ("coeffs --k 6 --format json", 0, "3ad3cbebdb6577e5657abab59903b18d8f4e18dcb9fefcef74aba8dc9e1b118d"),
    ("coeffs --upto 10 --format markdown", 0, "99325346bfd37fc72a44f722721922e64d40ddc4386a437f5d246d9e330e4c21"),
    ("coeffs --upto 10 --format csv", 0, "931c72da64aaabf58e3c1f8bea0c58772341672d20e7112e6506e9db2c6670ca"),
    ("coeffs --upto 10 --format json", 0, "9f7d90e72ce2d1f005df222d5bce861f4159a1b93b59cbdd576ea3359801c71e"),
    ("series --k 2 --order 20 --format markdown", 0, "9a34536e3856ab68051d42c0ddcd1457c9ac1d4adcb5f7a9589196973ac679e8"),
    ("series --k 2 --order 20 --format csv", 0, "35fdf78d6fa2032590fd4e973692caa7e659c2697c27ef1903653734f73d8e6d"),
    ("series --k 2 --order 20 --format json", 0, "c5a399674a9d59ec802c0dfecc3f8d8a23bcfb373d8093b39c988e066f42ef0e"),
    ("verify combinatorics --max 30 --format text", 0, "7a75c104c2a3e58bc17a381fc7bf2d2dd1965ddeb44d27898e0060df86bc3125"),
    ("verify combinatorics --max 30 --format json", 0, "6ad2c398e12b8441585bc36c044f77b512c1ef2f998eae364c2f4974f53f1883"),
    ("verify oracle --kmax 3 --n 6 --format text", 0, "26faca26590531f27933435a9bacbd8b281cf857872ff9f0fbc87227d43b4a67"),
    ("verify oracle --kmax 3 --n 6 --format json", 0, "e56055ffee2ea924279cba6f19ff9e21cd78722973a09d6e341b26a174001c72"),
    ("coeffs --k 0 --format markdown", 0, "89375b54d35ed5b69e489616fd452c415082878f74be4d85cf3258766e6a97a4"),
    ("coeffs --k 0 --format csv", 0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("coeffs --k 0 --format json", 0, "864f0161a33c9e78b316b582205ba75e8974049ebd3af283d332b38ae49adf54"),
    ("table euler --max 0 --format markdown", 0, "89375b54d35ed5b69e489616fd452c415082878f74be4d85cf3258766e6a97a4"),
    ("table euler --max 0 --format csv", 0, "8d66c089414bb76bc2ee5c11465c93257821752b4e08be4f1d70737b9fa10f0c"),
    ("table euler --max 0 --format json", 0, "a61fe1b9d00b2bda3d9cc5c953c3c416faddc06184c9b4bb47ced2cbb52b2a38"),
    ("table derangement --max 0 --format markdown", 0, "0e81de6fafd38d1bdca0e5af80f7c3fb570be6aa952e1afcfc429fc50c36d862"),
    ("table derangement --max 0 --format csv", 0, "8d66c089414bb76bc2ee5c11465c93257821752b4e08be4f1d70737b9fa10f0c"),
    ("table derangement --max 0 --format json", 0, "f0f936fc0aa7d44d7fe21b70638452d12a87b750778ae0a80244d2b93612b395"),
    ("table higher --max 0 --format markdown", 0, "0766f79b1e200b3febc8a1d9ed7283e228b56eaa1cac7eae57a8880d8b6cd9b3"),
    ("table higher --max 0 --format csv", 0, "8d66c089414bb76bc2ee5c11465c93257821752b4e08be4f1d70737b9fa10f0c"),
    ("table higher --max 0 --format json", 0, "6a4d8cbed515eb4e0ba4a1e8865d80a89450e4957f16f652c04ccee301b7c3c6"),
    ("series --k 0 --order 0 --format markdown", 0, "a449c57f6613d4b3ac3a56d2f7e8b54ce326ab778fc6f04b2f13b25b111e43a1"),
    ("series --k 0 --order 0 --format csv", 0, "8d66c089414bb76bc2ee5c11465c93257821752b4e08be4f1d70737b9fa10f0c"),
    ("series --k 0 --order 0 --format json", 0, "cdacc608b903ed3cf3b41d596c85bb4c3f11b97bb9a45ae046b67fad746fe4a1"),
    # Unlike ``coeffs --k``, the CSV of ``coeffs --upto`` keeps the power: 1,0,1.
    ("coeffs --upto 1 --format markdown", 0, "367f55954b0d767012521cc05ab4c92274b47c1530b68d1e2491c95ee8e2c082"),
    ("coeffs --upto 1 --format csv", 0, "afe2d7dcf4f497d9e335c29551a11323e030c9fca063c483bfd720039d71f10f"),
    ("coeffs --upto 1 --format json", 0, "2ab0bd009e10f7f91d0d7dbe0291d709067e430326c9bff1241450600384d067"),
    ("verify oracle --kmax 0 --n 1 --format text", 0, "24360fd6e4be1c4e361ce73b0bb4518c46c3fcf1b6dcf7587605cae086af0514"),
    ("verify oracle --kmax 0 --n 1 --format json", 0, "9bf402a6b42b86256d88c46fbeeb18058364901f19d242093b8d57abda3139c1"),
    # Values above CPython's 4,300-digit int-to-str default, which the tables
    # print through Decimal, and rows of 122 and 151 cells, across several of
    # the writers' 32-cell pieces.
    ("table derangement --max 2000 --format csv", 0, "99b1e0505609fef3b4c01f3b3d75c40642da6095ae1491157f465745e583fc80"),
    ("table euler --max 120 --format markdown", 0, "92c7237f7bc0bc72b7db1a318cb6086d638376b66a76f89da32104a80c3955f5"),
    ("table higher --max 150 --format json", 0, "990d7c7d576bee2a36fe8d6c7b98e2854266ccfeb920075b11f0ae0395d4816a"),
]


@pytest.mark.parametrize(
    "command,exit_code,digest", GOLDEN_DIGESTS, ids=[c for c, _, _ in GOLDEN_DIGESTS]
)
def test_stdout_is_byte_identical_to_golden(command, exit_code, digest, capsys):
    code, out, _ = invoke(command.split(), capsys)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Commands that print ints through str past CPython's 4,300-digit default, which
# ``run`` lifts: a 4,466-digit entry, and a 5,075-digit numerator and denominator.
INT_STR_DIGESTS = [
    ("coeffs --k 1600", "84852dbc710a2b40a443a30cb3dd96e497ef7cd2b124cc788dee9508355056d4"),
    ("series --k 0 --order 1800", "52fa018cbcc4e9ec993a5a08f508af9bab2fbbb85e5a5ffcca071794399d41ac"),
]


@pytest.mark.parametrize("command,digest", INT_STR_DIGESTS, ids=[c for c, _ in INT_STR_DIGESTS])
def test_ints_past_the_str_digit_default_print_in_a_fresh_interpreter(command, digest):
    # The command runs alone, at the interpreter's default limit, without
    # the environment's own lift.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    result = subprocess.run(
        [sys.executable, "-m", "adjoint_powers", *command.split()],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert max(map(len, result.stdout.split(b" | "))) > 4300
    assert hashlib.sha256(result.stdout).hexdigest() == digest


def test_run_restores_the_callers_int_str_limit(capsys, monkeypatch):
    # ``coeffs --k 1600`` prints a 4,466-digit entry through str, so the lift
    # holds while the command prints; the caller's limit, set here since an
    # earlier run may have left another, reads the same after every way out
    # of ``run``: a command, a refused request, and an exception.
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, _ = invoke(["coeffs", "--k", "1600", "--format", "csv"], capsys)
        assert code == 0
        assert max(map(len, out.strip().split(","))) == 4466
        assert sys.get_int_max_str_digits() == 4300
        assert invoke(["coeffs", "--k", "-1"], capsys)[0] == 2
        assert sys.get_int_max_str_digits() == 4300

        def fault(args):
            raise RuntimeError("planted")

        monkeypatch.setattr(cli, "_cmd_coeffs", fault)
        with pytest.raises(RuntimeError, match="planted"):
            run(["coeffs", "--k", "1"])
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)


def test_readme_commands_have_golden_digests():
    # Every command of the README's CLI block, in every format its
    # ``[--format ...]`` lists (``...`` standing for TABLE_FORMATS).
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("```sh", lines.index("## CLI")) + 1
    block = lines[start : lines.index("```", start)]
    assert block
    golden = {command for command, _, _ in GOLDEN_DIGESTS}
    expected = set()
    for line in block:
        command, formats = line.split("#")[0].removeprefix("adjoint-powers ").split(" [--format ")
        formats = formats.strip().removesuffix("]")
        for fmt in cli.TABLE_FORMATS if formats == "..." else formats.split("|"):
            expected.add(f"{command} --format {fmt}")
    assert expected <= golden, sorted(expected - golden)
