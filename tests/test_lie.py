"""Lie oracle: weight systems, tensor steps, block extraction, certification.

The factored V x V* tensor step is cross-checked against three
test-side steps that share no code with it: a brute-force oracle that
convolves full weight-system characters and strips highest weights
iteratively, the signed dominant reflection of every rho-shifted
weight, and the box-move rule that moves one box between two rows.
The run-pair Weyl dimension is checked against Weyl's product over
every pair of rows.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from adjoint_powers import (
    BlockExtractionError,
    StableLabel,
    adjoint_labels,
    adjoint_power,
    adjoint_weight_system,
    derangement,
    dynkin_to_stable,
    extract_stable_blocks,
    freudenthal_weights,
    leading_block_label,
    lie,
    stable_to_dynkin,
    tensor_with_adjoint,
    trivial_labels,
    verify_stable_decomposition,
    weyl_dimension,
)
from adjoint_powers.serialize import canonical_json


# --- brute-force tensor oracle -------------------------------------------


def _suffix_parts(labels, n):
    parts = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        parts[i] = parts[i + 1] + labels[i]
    return tuple(parts)


def plane_weight_system(labels, n):
    """Weight system shifted into the plane of the highest-weight vector."""
    total = sum(_suffix_parts(labels, n))
    out = {}
    for weight, mult in freudenthal_weights(labels, n).items():
        shift, remainder = divmod(total - sum(weight), n + 1)
        assert remainder == 0
        out[tuple(c + shift for c in weight)] = mult
    return out


def brute_tensor_decompose(labels1, labels2, n):
    """Decompose a product by character convolution and iterated stripping."""
    char = {}
    for a, ma in plane_weight_system(labels1, n).items():
        for b, mb in plane_weight_system(labels2, n).items():
            key = tuple(x + y for x, y in zip(a, b))
            char[key] = char.get(key, 0) + ma * mb
    out = {}
    while char:
        top = max(char)  # lexicographic maximum is dominant
        mult = char[top]
        assert mult > 0
        assert all(top[i] >= top[i + 1] for i in range(n))
        labels = tuple(top[i] - top[i + 1] for i in range(n))
        out[labels] = mult
        offset = top[-1]
        for weight, m in plane_weight_system(labels, n).items():
            key = tuple(c + offset for c in weight)
            char[key] = char.get(key, 0) - mult * m
            assert char[key] >= 0
            if not char[key]:
                del char[key]
    return out


def brute_tensor_with_adjoint(state, n):
    total = {}
    for labels, mult in state.items():
        for out_labels, m in brute_tensor_decompose(labels, adjoint_labels(n), n).items():
            total[out_labels] = total.get(out_labels, 0) + mult * m
    return total


# --- signed-reflection tensor step ------------------------------------------


def _sort_with_sign(values):
    # Sign of the permutation sorting into strictly decreasing order;
    # a repeated value sits on a reflection wall and contributes zero.
    if len(set(values)) != len(values):
        return 0, ()
    inversions = sum(1 for a, b in combinations(values, 2) if a < b)
    return (-1 if inversions % 2 else 1), tuple(sorted(values, reverse=True))


def reflection_tensor_with_adjoint(state, n):
    """Reflect every rho-shifted lam + mu, mu an adjoint weight, to the
    dominant chamber with the sign of the sorting permutation."""
    rho = range(n, -1, -1)
    out = {}
    for labels, mult in state.items():
        base = [p + r for p, r in zip(_suffix_parts(labels, n), rho)]
        for weight, weight_mult in adjoint_weight_system(n).items():
            sign, ordered = _sort_with_sign([b + w for b, w in zip(base, weight)])
            if sign == 0:
                continue
            parts = [s - r for s, r in zip(ordered, rho)]
            key = tuple(parts[i] - parts[i + 1] for i in range(n))
            out[key] = out.get(key, 0) + sign * weight_mult * mult
    negatives = {k: v for k, v in out.items() if v < 0}
    assert not negatives, f"negative multiplicities: {negatives}"
    return {k: v for k, v in out.items() if v}


# --- box-move tensor step -------------------------------------------------


def box_move_tensor_with_adjoint(state, n):
    """V(lam) x adjoint as the sum of V(lam + e_i - e_j) over rows i != j
    with a dominant result (row i gains a box, row j loses one), plus
    V(lam) once per nonzero Dynkin label of lam."""
    out = {}
    for labels, mult in state.items():
        gaining = [i for i in range(n + 1) if i == 0 or labels[i - 1]]
        losing = [j for j in range(n + 1) if j == n or labels[j]]
        for i in gaining:
            for j in losing:
                # i == j is the zero weight, counted below; for i == j + 1
                # both moves lower a_j, which must therefore be at least 2.
                if i == j or (i == j + 1 and labels[j] < 2):
                    continue
                moved = list(labels)
                if i:
                    moved[i - 1] -= 1
                if i < n:
                    moved[i] += 1
                if j:
                    moved[j - 1] += 1
                if j < n:
                    moved[j] -= 1
                key = tuple(moved)
                out[key] = out.get(key, 0) + mult
        nonzero = n - labels.count(0)
        if nonzero:
            out[labels] = out.get(labels, 0) + nonzero * mult
    return out


def plain_weyl_dimension(labels, n):
    """Weyl's product over every pair i < j, unit factors included."""
    shifted = [p + r for p, r in zip(_suffix_parts(labels, n), range(n, -1, -1))]
    numerator = denominator = 1
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            numerator *= shifted[i] - shifted[j]
            denominator *= j - i
    assert numerator % denominator == 0
    return numerator // denominator


# --- dimensions and weight systems ----------------------------------------


def test_weyl_dimension_trivial_and_adjoint():
    for n in range(1, 9):
        assert weyl_dimension(trivial_labels(n), n) == 1
        assert weyl_dimension(adjoint_labels(n), n) == (n + 1) ** 2 - 1


def test_weyl_dimension_derived_example():
    assert weyl_dimension((2, 0, 0, 2), 4) == 200
    assert sum(freudenthal_weights((2, 0, 0, 2), 4).values()) == 200


def test_weyl_dimension_duality():
    for labels, n in [((2, 1, 0), 3), ((1, 0, 2, 1), 4), ((3, 0, 1, 0, 0), 5)]:
        assert weyl_dimension(labels, n) == weyl_dimension(labels[::-1], n)


def test_weyl_dimension_matches_plain_product():
    for n in (9, 100):
        for labels in adjoint_power(4, n):
            assert weyl_dimension(labels, n) == plain_weyl_dimension(labels, n)


@st.composite
def sparse_labels(draw):
    # Stable-range labels: a few nonzero labels around long zero runs.
    n = draw(st.integers(min_value=1, max_value=40))
    nonzero = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, 6), max_size=5))
    return tuple(nonzero.get(i, 0) for i in range(n)), n


@settings(max_examples=200, deadline=None)
@given(sparse_labels())
def test_weyl_dimension_matches_plain_product_on_sparse_labels(case):
    labels, n = case
    assert weyl_dimension(labels, n) == plain_weyl_dimension(labels, n)


@settings(max_examples=200, deadline=None)
@given(sparse_labels())
def test_weyl_dimension_is_invariant_under_duality(case):
    # The dual irrep has the reversed labels; the oracle measures one of each pair.
    labels, n = case
    assert weyl_dimension(labels[::-1], n) == weyl_dimension(labels, n)


def test_weyl_dimension_validation():
    with pytest.raises(ValueError):
        weyl_dimension((1, 0), 3)
    with pytest.raises(ValueError):
        weyl_dimension((1, -1, 0), 3)


def test_freudenthal_defining_representation():
    for n in range(1, 7):
        labels = (1,) + (0,) * (n - 1)
        system = freudenthal_weights(labels, n)
        assert len(system) == n + 1
        assert set(system.values()) == {1}


def test_freudenthal_adjoint_zero_weight():
    for n in range(1, 7):
        system = freudenthal_weights(adjoint_labels(n), n)
        assert system[(0,) * (n + 1)] == n


def test_freudenthal_totals_match_dimension():
    cases = [((3, 2), 2), ((1, 1, 1), 3), ((2, 0, 2), 3), ((1, 0, 1, 0), 4), ((0, 2, 0, 0, 0), 5)]
    for labels, n in cases:
        dim = weyl_dimension(labels, n)
        assert dim <= 10**4
        assert sum(freudenthal_weights(labels, n).values()) == dim


def test_freudenthal_permutation_symmetry():
    system = freudenthal_weights((2, 0, 2), 3)
    from itertools import permutations

    for weight, mult in system.items():
        for perm in set(permutations(weight)):
            assert system[perm] == mult


def test_adjoint_weight_system_counts():
    system = adjoint_weight_system(2)
    assert system[(0, 0, 0)] == 2
    assert len(system) == 7  # six roots plus the zero weight
    assert sum(adjoint_weight_system(5).values()) == 35


def test_adjoint_weight_system_matches_freudenthal():
    for n in range(1, 7):
        assert adjoint_weight_system(n) == freudenthal_weights(adjoint_labels(n), n)


# --- tensor steps ----------------------------------------------------------


def test_tensor_trivial_gives_adjoint():
    for n in range(1, 6):
        assert tensor_with_adjoint({trivial_labels(n): 1}, n) == {adjoint_labels(n): 1}


def test_tensor_adjoint_square_derived():
    result = tensor_with_adjoint({adjoint_labels(3): 1}, 3)
    assert result[(0, 0, 0)] == 1
    assert result[(1, 0, 1)] == 2
    assert result[(2, 0, 2)] == 1
    assert sum(m * weyl_dimension(l, 3) for l, m in result.items()) == 225
    assert result == brute_tensor_decompose(adjoint_labels(3), adjoint_labels(3), 3)


def test_tensor_defining_derived():
    result = tensor_with_adjoint({(1, 0, 0, 0): 1}, 4)
    assert result == {(2, 0, 0, 1): 1, (0, 1, 0, 1): 1, (1, 0, 0, 0): 1}
    assert sum(m * weyl_dimension(l, 4) for l, m in result.items()) == 120
    assert result == brute_tensor_decompose((1, 0, 0, 0), adjoint_labels(4), 4)


def test_tensor_multiset_matches_brute_oracle():
    state = {adjoint_labels(3): 2, (1, 0, 0): 1}
    assert tensor_with_adjoint(state, 3) == brute_tensor_with_adjoint(state, 3)


def test_tensor_matches_reflection_on_adjoint_powers():
    for n in range(1, 6):
        state = {trivial_labels(n): 1}
        for _ in range(4):
            expected = reflection_tensor_with_adjoint(state, n)
            state = tensor_with_adjoint(state, n)
            assert state == expected


@st.composite
def dominant_states(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    labels = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    state = draw(st.dictionaries(labels, st.integers(1, 3), min_size=1, max_size=4))
    return state, n


@settings(max_examples=200, deadline=None)
@given(dominant_states())
def test_tensor_matches_reflection_on_random_states(case):
    state, n = case
    assert tensor_with_adjoint(state, n) == reflection_tensor_with_adjoint(state, n)


@settings(max_examples=200, deadline=None)
@given(dominant_states())
def test_tensor_matches_box_move_on_random_states(case):
    state, n = case
    assert tensor_with_adjoint(state, n) == box_move_tensor_with_adjoint(state, n)


def test_tensor_rejects_bad_multiplicity():
    with pytest.raises(ValueError):
        tensor_with_adjoint({trivial_labels(3): 0}, 3)


def test_adjoint_power_small_cases():
    for n in range(1, 6):
        assert adjoint_power(0, n) == {trivial_labels(n): 1}
        assert adjoint_power(1, n) == {adjoint_labels(n): 1}
    assert adjoint_power(3, 5)[(3, 0, 0, 0, 3)] == 1
    assert adjoint_power(2, 5)[trivial_labels(5)] == 1


def test_adjoint_power_dimension_conservation():
    for n in range(1, 6):
        adjoint_dim = (n + 1) ** 2 - 1
        for k in range(4):
            total = sum(m * weyl_dimension(l, n) for l, m in adjoint_power(k, n).items())
            assert total == adjoint_dim**k


def test_adjoint_power_closed_under_duality():
    for k in range(4):
        power = adjoint_power(k, 3)
        for labels, mult in power.items():
            assert power[labels[::-1]] == mult


def test_adjoint_power_matches_brute_oracle():
    state = {trivial_labels(3): 1}
    for k in range(1, 4):
        state = brute_tensor_with_adjoint(state, 3)
        assert adjoint_power(k, 3) == state


def test_adjoint_power_rejects_negative():
    with pytest.raises(ValueError):
        adjoint_power(-1, 3)


# --- stable labels ----------------------------------------------------------


def test_stable_label_validation():
    with pytest.raises(ValueError):
        StableLabel((1, 2), (2, 1))  # left side not weakly decreasing
    with pytest.raises(ValueError):
        StableLabel((2,), (1,))  # unequal box counts
    with pytest.raises(ValueError):
        StableLabel((0,), (0,))  # zero parts are not stored


def test_stable_conversions_examples():
    assert stable_to_dynkin(StableLabel((1,), (1,)), 5) == (1, 0, 0, 0, 1)
    for p in range(1, 5):
        for n in range(2 * p - 1, 2 * p + 3):
            expected = [0] * n
            expected[0] += p
            expected[-1] += p
            assert stable_to_dynkin(leading_block_label(p), n) == tuple(expected)


def test_stable_round_trip():
    labels = (2, 1, 0, 0, 1, 2)
    assert stable_to_dynkin(dynkin_to_stable(labels, 6), 6) == labels


def test_stable_boundary_collision():
    # Two columns on each side exactly fill the weight vector at rank 3.
    label = StableLabel((1, 1), (1, 1))
    assert stable_to_dynkin(label, 3) == (0, 2, 0)
    assert dynkin_to_stable((0, 2, 0), 3) == label


def test_stable_conversion_errors():
    with pytest.raises(ValueError):
        stable_to_dynkin(StableLabel((1, 1, 1), (3,)), 2)  # rank too small
    with pytest.raises(ValueError):
        dynkin_to_stable((1, 0, 0), 3)  # defining rep is not an adjoint-power weight


def test_round_trip_over_power_labels():
    for k in range(4):
        for labels in adjoint_power(k, 6):
            assert stable_to_dynkin(dynkin_to_stable(labels, 6), 6) == labels


@st.composite
def stable_labels_with_rank(draw):
    def partition(boxes):
        parts = []
        while boxes:
            part = draw(st.integers(1, min(boxes, parts[-1] if parts else boxes)))
            parts.append(part)
            boxes -= part
        return tuple(parts)

    boxes = draw(st.integers(0, 8))
    label = StableLabel(partition(boxes), partition(boxes))
    n = draw(st.integers(max(1, len(label.left) + len(label.right) - 1), 14))
    return label, n


@settings(max_examples=200, deadline=None)
@given(stable_labels_with_rank())
def test_stable_round_trip_on_random_labels(case):
    label, n = case
    assert dynkin_to_stable(stable_to_dynkin(label, n), n) == label


@settings(max_examples=200, deadline=None)
@given(stable_labels_with_rank())
def test_dual_labels_swap_the_stable_pair(case):
    # The dual of [left, right] is [right, left]: the oracle swaps the pair
    # it measured for a label instead of converting the reversed label.
    label, n = case
    labels = stable_to_dynkin(label, n)
    assert dynkin_to_stable(labels[::-1], n) == StableLabel(label.right, label.left)


def plain_dynkin_to_stable(labels, n):
    """Centre all n + 1 parts; None when the centring shift is not integral."""
    parts = _suffix_parts(labels, n)
    shift, remainder = divmod(sum(parts), n + 1)
    if remainder:
        return None
    centered = [p - shift for p in parts]
    return (
        tuple(p for p in centered if p > 0),
        tuple(-p for p in reversed(centered) if p < 0),
    )


@settings(max_examples=200, deadline=None)
@given(sparse_labels())
def test_dynkin_to_stable_matches_plain_centring(case):
    labels, n = case
    expected = plain_dynkin_to_stable(labels, n)
    if expected is None:
        with pytest.raises(ValueError, match="not a weight of an adjoint tensor power"):
            dynkin_to_stable(labels, n)
    else:
        assert dynkin_to_stable(labels, n) == expected


@st.composite
def stable_powers(draw):
    k = draw(st.integers(0, 4))
    return k, draw(st.integers(max(1, 2 * k - 1), 2 * k + 4))


@settings(max_examples=30, deadline=None)
@given(stable_powers())
def test_dynkin_round_trip_on_random_powers(case):
    k, n = case
    for labels in adjoint_power(k, n):
        assert stable_to_dynkin(dynkin_to_stable(labels, n), n) == labels


# --- block extraction and certification -------------------------------------


def test_extract_blocks_boundary_rank():
    blocks = extract_stable_blocks(2, 3)
    assert blocks[0] == {StableLabel((), ()): 1}
    assert blocks[1] == {StableLabel((1,), (1,)): 1}
    assert blocks[2] == {
        StableLabel((2,), (2,)): 1,
        StableLabel((1, 1), (1, 1)): 1,
        StableLabel((2,), (1, 1)): 1,
        StableLabel((1, 1), (2,)): 1,
    }


def test_extract_blocks_properties():
    blocks = extract_stable_blocks(3, 5)
    for k, block in enumerate(blocks):
        assert all(m > 0 for m in block.values())
        assert block[leading_block_label(k)] == 1
    # Observed, not assumed: the trivial rep lives only in block 0.
    for block in blocks[1:]:
        assert StableLabel((), ()) not in block


def test_extract_blocks_stable_across_ranks():
    assert extract_stable_blocks(2, 3) == extract_stable_blocks(2, 5)
    assert extract_stable_blocks(3, 5) == extract_stable_blocks(3, 7)


def test_extract_blocks_range_gate():
    with pytest.raises(ValueError):
        extract_stable_blocks(3, 3)
    with pytest.raises(ValueError):
        extract_stable_blocks(-1, 3)


def test_verify_boundary_rank_passes():
    report = verify_stable_decomposition(2, 3)
    assert report.passed
    assert [c.power for c in report.checks] == [0, 1, 2]
    for check in report.checks:
        assert check.passed
        assert check.trivial_observed == derangement(check.power)
        assert check.dimension_observed == 15**check.power


def test_verify_vacuous_single_power():
    assert verify_stable_decomposition(1, 1).passed
    assert verify_stable_decomposition(1, 4).passed


def test_verify_range_gate():
    with pytest.raises(ValueError):
        verify_stable_decomposition(3, 3)


@pytest.mark.parametrize("error", [-1, 1])
def test_miscounted_coefficient_is_caught(error, monkeypatch):
    # Block 4 is the remainder after subtracting c(4, p) copies of each
    # earlier block, so a wrong c(4, 2) leaves block-2 labels (two boxes
    # per side) in it, with positive or negative multiplicity.
    true_coefficient = lie.coefficient
    monkeypatch.setattr(
        lie,
        "coefficient",
        lambda k, p: true_coefficient(k, p) + (error if (k, p) == (4, 2) else 0),
    )
    report = verify_stable_decomposition(4, 7)
    assert not report.passed
    assert all(check.passed for check in report.checks[:4])
    residual = report.checks[4].residual
    assert residual
    for label, (expected, observed) in residual.items():
        assert sum(label.left) == 2
        assert expected == 0 and observed != 0
    with pytest.raises(BlockExtractionError):
        extract_stable_blocks(4, 7)


def test_each_distinct_label_is_converted_once(monkeypatch):
    # Every label of power k - 1 recurs in power k for k >= 2, so the
    # distinct labels of powers 0..10 are those of power 10: 3,583 of
    # the 7,118 labels the eleven powers hold between them.  Each power
    # is self-dual, and a label's dual (its reversal) reuses the label's
    # measurement, so each dual pair is measured once: 139 of the 3,583
    # labels are self-dual, and (3,583 + 139) / 2 = 1,861.
    calls = {"dynkin_to_stable": 0, "weyl_dimension": 0}
    for name in calls:
        def counted(labels, n, _inner=getattr(lie, name), _name=name):
            calls[_name] += 1
            return _inner(labels, n)

        monkeypatch.setattr(lie, name, counted)
    report = verify_stable_decomposition(10, 19)
    assert report.passed
    power = adjoint_power(10, 19)
    assert len(power) == 3583
    assert sum(labels == labels[::-1] for labels in power) == 139
    assert calls == {"dynkin_to_stable": 1861, "weyl_dimension": 1861}


def test_verify_report_payload():
    import json

    report = verify_stable_decomposition(2, 4)
    payload = report.to_payload()
    assert payload["passed"] is True
    assert payload["k_max"] == 2 and payload["rank"] == 4
    for check in payload["checks"]:
        assert isinstance(check["dimension_observed"], str)
        assert isinstance(check["trivial_expected"], str)
        assert check["residual"] == [] and check["negative_entries"] == []
    text = canonical_json(payload)
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text


def test_planted_trivial_miscount_is_caught(monkeypatch):
    # d_3 off by one: the observed trivial count no longer matches, so
    # the power fails and extraction refuses it like any other check.
    true_derangement = lie.derangement
    monkeypatch.setattr(
        lie, "derangement", lambda k: true_derangement(k) + (1 if k == 3 else 0)
    )
    report = verify_stable_decomposition(3, 5)
    assert not report.passed
    assert [check.passed for check in report.checks] == [True, True, True, False]
    check = report.checks[3]
    assert check.trivial_expected != check.trivial_observed
    assert check.trivial_observed == true_derangement(3)
    with pytest.raises(BlockExtractionError, match="power 3 at rank 5"):
        extract_stable_blocks(3, 5)


def test_block_extraction_error_type_exists():
    # Extraction raises it on the first power that fails a check, as the
    # planted miscounts above show; it is an arithmetic falsification.
    assert issubclass(BlockExtractionError, ArithmeticError)
