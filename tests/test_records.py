"""Record semantics: every record is an immutable named tuple whose repr,
equality, hashing and order are those of its fields as a plain tuple."""

import pytest
from conftest import partitions_of
from hypothesis import given, strategies as st

from adjoint_powers import (
    PowerCheck,
    StableLabel,
    VerificationReport,
    coefficient_row,
    egf_coefficients,
)


def power_check(**overrides):
    fields = dict(
        power=1,
        dimension_expected=15,
        dimension_observed=15,
        trivial_expected=0,
        trivial_observed=0,
        residual={},
    )
    return PowerCheck(**{**fields, **overrides})


RECORDS = {
    "PowerSeries": egf_coefficients(1, 2),
    "CoefficientRow": coefficient_row(2),
    "StableLabel": StableLabel((2, 1), (3,)),
    "PowerCheck": power_check(residual={StableLabel((1,), (1,)): (0, 2)}),
    "VerificationReport": VerificationReport(k_max=1, rank=3, checks=[power_check()]),
}

REPRS = {
    "PowerSeries": (
        "PowerSeries(parameter=1, order=2,"
        " coefficients=(Fraction(1, 1), Fraction(1, 1), Fraction(3, 2)))"
    ),
    "CoefficientRow": "CoefficientRow(power=2, values=(1, 2, 1))",
    "StableLabel": "StableLabel(left=(2, 1), right=(3,))",
    "PowerCheck": (
        "PowerCheck(power=1, dimension_expected=15, dimension_observed=15, trivial_expected=0,"
        " trivial_observed=0, residual={StableLabel(left=(1,), right=(1,)): (0, 2)})"
    ),
    "VerificationReport": (
        "VerificationReport(k_max=1, rank=3, checks=[PowerCheck(power=1,"
        " dimension_expected=15, dimension_observed=15, trivial_expected=0, trivial_observed=0,"
        " residual={})])"
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr_names_every_field(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    assert repr(record) == str(record) == REPRS[name]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_cannot_be_assigned(name):
    record = RECORDS[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict either


def test_power_check_requires_every_field():
    # No field has a default: a check without its residual is refused.
    fields = power_check()._asdict()
    del fields["residual"]
    with pytest.raises(TypeError):
        PowerCheck(**fields)
    # A residual fails the power.
    label = StableLabel((1,), (1,))
    assert power_check().passed is True
    assert power_check(residual={label: (0, -1)}).passed is False


def test_power_check_reads_leading_and_negative_entries_from_its_residual():
    # Neither is stored, so neither can disagree with the residual: the
    # leading label [(k), (k)] must not be in it, and a label of fewer than
    # k boxes a side held fewer times than predicted is a negative entry,
    # observed - expected, of block k.
    leading, short = StableLabel((2,), (2,)), StableLabel((1,), (1,))
    full = StableLabel((1, 1), (2,))
    check = power_check(power=2, residual={short: (4, 1), full: (1, 0)})
    assert check.leading_ok and check.negative_entries == {short: -3}
    check = power_check(power=2, residual={leading: (1, 0), short: (4, 6)})
    assert not check.leading_ok and check.negative_entries == {}
    assert "leading_ok" not in PowerCheck._fields and "negative_entries" not in PowerCheck._fields


def test_verification_report_verdict_is_its_checks():
    # The verdict is derived, not stored, so it cannot disagree with the checks.
    assert "passed" not in VerificationReport._fields
    assert VerificationReport(1, 3, [power_check()]).passed is True
    failing = power_check(residual={StableLabel((1,), (1,)): (1, 0)})
    assert not failing.leading_ok
    assert VerificationReport(1, 3, [power_check(), failing]).passed is False


@st.composite
def stable_labels(draw):
    boxes = draw(st.integers(0, 6))
    return StableLabel(draw(partitions_of(boxes)), draw(partitions_of(boxes)))


@given(stable_labels(), stable_labels())
def test_stable_label_compares_hashes_and_sorts_as_its_pair(a, b):
    pair_a, pair_b = (a.left, a.right), (b.left, b.right)
    assert a == pair_a and hash(a) == hash(pair_a)
    assert (a == b) == (pair_a == pair_b)
    assert (a < b) == (pair_a < pair_b)
    assert (a <= b) == (pair_a <= pair_b)
    assert sorted([a, b]) == sorted([b, a]) == [StableLabel(*p) for p in sorted([pair_a, pair_b])]
    assert {a: 1, b: 2}[a] == (2 if pair_a == pair_b else 1)


def test_stable_label_checks_every_construction():
    assert StableLabel(left=(1,), right=(1,)) == StableLabel((1,), (1,))
    assert StableLabel((1,), (1,))._replace(left=(1, 1), right=(2,)) == StableLabel((1, 1), (2,))
    with pytest.raises(ValueError, match="equal box counts"):
        StableLabel((1,), (1,))._replace(left=(2,))
    with pytest.raises(ValueError, match="not a partition"):
        StableLabel._make([(1, 2), (3,)])
    with pytest.raises(ValueError, match="not a partition"):
        StableLabel(left=(1, -1), right=())
    with pytest.raises(ValueError, match="equal box counts"):
        StableLabel(left=(1,), right=())
