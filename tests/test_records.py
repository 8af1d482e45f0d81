"""Record semantics: every record is an immutable named tuple whose repr,
equality, hashing and order are those of its fields as a plain tuple."""

import pytest
from hypothesis import given, strategies as st

from adjoint_powers import (
    PowerCheck,
    StableLabel,
    VerificationReport,
    coefficient_row,
    decomposition_table,
    egf_coefficients,
    euler_table,
    higher_derangement_table,
)


def power_check(**overrides):
    fields = dict(
        power=1,
        dimension_expected=15,
        dimension_observed=15,
        trivial_expected=0,
        trivial_observed=0,
        leading_ok=True,
    )
    return PowerCheck(**{**fields, **overrides})


RECORDS = {
    "EulerTable": euler_table(2),
    "HigherDerangementTable": higher_derangement_table(2),
    "PowerSeries": egf_coefficients(1, 2),
    "CoefficientRow": coefficient_row(2),
    "DecompositionTable": decomposition_table(1),
    "StableLabel": StableLabel((2, 1), (3,)),
    "PowerCheck": power_check(residual={StableLabel((1,), (1,)): (0, 2)}),
    "VerificationReport": VerificationReport(
        k_max=1, rank=3, passed=True, checks=[power_check()], seconds=0.5
    ),
}

REPRS = {
    "EulerTable": "EulerTable(max_index=2, entries=((1,), (0, 1), (1, 1, 2)))",
    "HigherDerangementTable": (
        "HigherDerangementTable(max_index=2, entries=((1,), (0, 1), (1, 1, 1)))"
    ),
    "PowerSeries": (
        "PowerSeries(parameter=1, order=2,"
        " coefficients=(Fraction(1, 1), Fraction(1, 1), Fraction(3, 2)))"
    ),
    "CoefficientRow": "CoefficientRow(power=2, values=(1, 2, 1))",
    "DecompositionTable": (
        "DecompositionTable(max_power=1, rows=(CoefficientRow(power=1, values=(0, 1)),))"
    ),
    "StableLabel": "StableLabel(left=(2, 1), right=(3,))",
    "PowerCheck": (
        "PowerCheck(power=1, dimension_expected=15, dimension_observed=15, trivial_expected=0,"
        " trivial_observed=0, leading_ok=True, negative_entries={},"
        " residual={StableLabel(left=(1,), right=(1,)): (0, 2)})"
    ),
    "VerificationReport": (
        "VerificationReport(k_max=1, rank=3, passed=True, checks=[PowerCheck(power=1,"
        " dimension_expected=15, dimension_observed=15, trivial_expected=0, trivial_observed=0,"
        " leading_ok=True, negative_entries={}, residual={})], seconds=0.5)"
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


def test_power_check_defaults_are_fresh_dicts():
    first, second = power_check(), power_check()
    assert first.negative_entries == first.residual == {}
    assert first.negative_entries is not second.negative_entries
    assert first.residual is not second.residual
    assert first.negative_entries is not first.residual
    first.negative_entries[StableLabel((1,), (1,))] = -1
    first.residual[StableLabel((1,), (1,))] = (0, -1)
    assert second.negative_entries == second.residual == {}
    assert power_check().negative_entries == power_check().residual == {}
    assert first.passed is False and second.passed is True


@st.composite
def stable_labels(draw):
    def partition(boxes):
        parts = []
        while boxes:
            part = draw(st.integers(1, min(boxes, parts[-1] if parts else boxes)))
            parts.append(part)
            boxes -= part
        return tuple(parts)

    boxes = draw(st.integers(0, 6))
    return StableLabel(partition(boxes), partition(boxes))


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
