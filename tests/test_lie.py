"""Lie oracle: tensor steps, dimensions, block extraction, certification.

The factored V x V* tensor step is cross-checked against three
test-side steps that share no code with it: a brute-force oracle that
convolves full weight-system characters and strips highest weights
iteratively, the signed dominant reflection of every rho-shifted
weight, and the box-move rule that moves one box between two rows.
The weight systems are test-side too, in the plane of the highest
weight (integer coordinates with the highest weight's sum): the
Freudenthal recursion, and the closed-form adjoint system checked
against it.  The step's tuple-keyed and bytes-keyed forms are checked
against each other and the box-move rule at entries up to 253, and
both are checked to refuse a larger entry.  The factored Weyl dimension is checked
against Weyl's product over every pair of rows, on labels and on pairs
of partitions.
"""

import math
import re
import tracemalloc
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from conftest import (
    SWAPPED,
    partitions_of,
    plant_dropped_label,
    plant_dual_swap,
    plant_miscounted_coefficient,
)
from hypothesis import given, settings, strategies as st

from adjoint_powers import (
    BlockExtractionError,
    StableLabel,
    adjoint_labels,
    adjoint_power,
    coefficient_row,
    derangement,
    dynkin_to_stable,
    extract_stable_blocks,
    leading_block_label,
    lie,
    stable_to_dynkin,
    tensor_with_adjoint,
    trivial_labels,
    verify_stable_decomposition,
    weyl_dimension,
)
from adjoint_powers.combinatorics import ExactDivisionError


# --- weight systems in the plane of the highest weight ----------------------


def _suffix_parts(labels, n):
    parts = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        parts[i] = parts[i + 1] + labels[i]
    return tuple(parts)


def _dominated_partitions(top, head=()):
    """The partitions of sum(top) into len(top) parts, zeros included,
    that top dominates, in decreasing lexicographic order."""
    if len(head) == len(top):
        if sum(head) == sum(top):
            yield head
        return
    room = sum(top[: len(head) + 1]) - sum(head)
    for part in range(min(room, head[-1]) if head else room, -1, -1):
        yield from _dominated_partitions(top, head + (part,))


def plane_weight_system(labels, n):
    """Full weight system with multiplicities, by the Freudenthal recursion.

    Works in the plane of the highest weight, where the Euclidean dot
    product gives the exact pairings.  The dominant weights of an
    A-series irrep are the partitions of the same total that the highest
    weight dominates, taken in decreasing lexicographic order, so every
    weight higher up an alpha-string is already known.  Multiplicities
    are Weyl-invariant, so each is spread over the permutations of its
    weight, which keep the sum and so stay in the plane.
    """
    top = _suffix_parts(labels, n)
    rho = range(n, -1, -1)
    top_norm = sum((t + r) ** 2 for t, r in zip(top, rho))
    dominants = _dominated_partitions(top)
    mult = {next(dominants): 1}  # the highest weight comes first
    for mu in dominants:
        acc = 0
        for i, j in combinations(range(n + 1), 2):
            v = list(mu)
            while True:
                v[i] += 1
                v[j] -= 1
                m = mult.get(tuple(sorted(v, reverse=True)), 0)
                if m == 0:
                    break  # alpha-strings are unbroken: nothing further up
                acc += m * (v[i] - v[j])
        denom = top_norm - sum((x + r) ** 2 for x, r in zip(mu, rho))
        mult[mu], remainder = divmod(2 * acc, denom)
        assert remainder == 0
    return {weight: m for mu, m in mult.items() for weight in set(permutations(mu))}


def adjoint_weight_system(n):
    """The (n+1)n roots with multiplicity 1 and the zero weight with
    multiplicity n, in the plane of the adjoint's highest weight, whose
    entries sum to n + 1: zero is 1 in every entry, and the root
    e_i - e_j is 2 at i, 0 at j and 1 elsewhere."""
    system = {(1,) * (n + 1): n}
    for i, j in permutations(range(n + 1), 2):
        root = [1] * (n + 1)
        root[i], root[j] = 2, 0
        system[tuple(root)] = 1
    return system


# --- brute-force tensor oracle -------------------------------------------


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
    assert sum(plane_weight_system((2, 0, 0, 2), 4).values()) == 200


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


# Any pair of partitions, not only one with equal box counts as a
# StableLabel; stable_to_dynkin reads only .left and .right.
PartitionPair = namedtuple("PartitionPair", ["left", "right"])

partitions = st.lists(st.integers(1, 300), max_size=6).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


@settings(max_examples=200, deadline=None)
@given(partitions, partitions, st.integers(0, 12))
def test_factored_dimension_matches_plain_product(left, right, spare):
    # N = n + 1 rows, from exactly len(left) + len(right) up: no row then
    # sits at the split between the two sides.
    rows = max(2, len(left) + len(right) + spare)
    labels = stable_to_dynkin(PartitionPair(left, right), rows - 1)
    sides = (lie._partition_dimension(left, rows), lie._partition_dimension(right, rows))
    shifted = (lie._shifted(left), lie._shifted(right))
    assert lie._pair_dimension(*shifted, rows, *sides) == plain_weyl_dimension(labels, rows - 1)


# Up to 30 parts as up to 30 runs of equal parts, each part up to 10**6.
long_partitions = st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 30)), max_size=30).map(
    lambda runs: tuple(sorted((part for part, size in runs for _ in range(size)), reverse=True))[:30]
)


@settings(max_examples=200, deadline=None)
@given(long_partitions, st.integers(0, 30))
def test_partition_dimension_matches_plain_product(parts, spare):
    # D_lambda(N) on N <= 60 rows, lambda padded with zeros.
    rows = max(1, len(parts) + spare)
    padded = parts + (0,) * (rows - len(parts))
    labels = tuple(a - b for a, b in zip(padded, padded[1:]))
    assert lie._partition_dimension(parts, rows) == plain_weyl_dimension(labels, rows - 1)


def test_weyl_dimension_validation():
    with pytest.raises(ValueError):
        weyl_dimension((1, 0), 3)
    with pytest.raises(ValueError):
        weyl_dimension((1, -1, 0), 3)


def test_freudenthal_defining_representation():
    for n in range(1, 7):
        labels = (1,) + (0,) * (n - 1)
        system = plane_weight_system(labels, n)
        assert len(system) == n + 1
        assert set(system.values()) == {1}


def test_freudenthal_adjoint_zero_weight():
    for n in range(1, 7):
        system = plane_weight_system(adjoint_labels(n), n)
        assert system[(1,) * (n + 1)] == n


def test_freudenthal_totals_match_dimension():
    cases = [((3, 2), 2), ((1, 1, 1), 3), ((2, 0, 2), 3), ((1, 0, 1, 0), 4), ((0, 2, 0, 0, 0), 5)]
    for labels, n in cases:
        dim = weyl_dimension(labels, n)
        assert dim <= 10**4
        assert sum(plane_weight_system(labels, n).values()) == dim


def test_freudenthal_permutation_symmetry():
    system = plane_weight_system((2, 0, 2), 3)
    for weight, mult in system.items():
        for perm in set(permutations(weight)):
            assert system[perm] == mult


def test_adjoint_weight_system_counts():
    system = adjoint_weight_system(2)
    assert system[(1, 1, 1)] == 2
    assert len(system) == 7  # six roots plus the zero weight
    assert sum(adjoint_weight_system(5).values()) == 35


def test_adjoint_weight_system_matches_freudenthal():
    for n in range(1, 7):
        assert adjoint_weight_system(n) == plane_weight_system(adjoint_labels(n), n)


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


@st.composite
def packed_states(draw):
    # Entries on both sides of the step's limit of 253, one byte per
    # Dynkin label.
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.integers(0, 3), st.integers(250, 258))
    labels = st.tuples(*[entry] * n)
    state = draw(st.dictionaries(labels, st.integers(1, 3), min_size=1, max_size=4))
    return state, n


@settings(max_examples=300, deadline=None)
@given(packed_states())
def test_tuple_and_bytes_steps_agree_with_box_move(case):
    state, n = case
    widest = max(state, key=max)
    if max(widest) > 253:
        # Both key types are refused, naming the label as a tuple; bytes
        # cannot hold an entry above 255.
        refusal = re.escape(f"label {widest} has an entry above 253")
        for key in [tuple] + ([bytes] if max(widest) <= 255 else []):
            with pytest.raises(ValueError, match=refusal):
                tensor_with_adjoint({key(labels): m for labels, m in state.items()}, n)
        return
    expected = box_move_tensor_with_adjoint(state, n)
    result = tensor_with_adjoint(state, n)
    assert result == expected
    assert all(type(labels) is tuple for labels in result)
    as_bytes = tensor_with_adjoint({bytes(labels): m for labels, m in state.items()}, n)
    assert all(type(labels) is bytes for labels in as_bytes)
    assert {tuple(labels): m for labels, m in as_bytes.items()} == expected


def test_tensor_refuses_entries_beyond_one_byte():
    # 253 is the largest entry the step takes, since a step may raise it
    # to 255: a_0 gets there when row 1 also gives up a box (a_1 > 0),
    # or at rank 1.
    for labels, top in [((253, 0, 0), (254, 0, 1)), ((253, 1, 0), (255, 0, 0)), ((253,), (255,))]:
        result = tensor_with_adjoint({labels: 1}, len(labels))
        assert result == box_move_tensor_with_adjoint({labels: 1}, len(labels))
        assert top in result
    for labels in [(254, 0, 0), (300, 0, 0), (2**64, 0)]:
        refusal = re.escape(f"label {labels} has an entry above 253")
        with pytest.raises(ValueError, match=refusal):
            tensor_with_adjoint({labels: 1}, len(labels))


@pytest.mark.parametrize("entry", [254, 255])
def test_bytes_label_that_could_overflow_is_named(entry):
    with pytest.raises(ValueError, match=rf"\(0, {entry}, 1\)"):
        tensor_with_adjoint({b"\x01\x00\x00": 2, bytes([0, entry, 1]): 1}, 3)


BAD_LABELS = [
    ((1, 0), "expected 3 labels, got 2"),
    ((1, -1, 0), "labels must be nonnegative, got (1, -1, 0)"),
    ((True, 0, True), "labels must be ints, got True in (True, 0, True)"),
    ((1.0, 0, 1), "labels must be ints, got 1.0 in (1.0, 0, 1)"),
]


@pytest.mark.parametrize("labels,message", BAD_LABELS, ids=["length", "negative", "bool", "float"])
@pytest.mark.parametrize("neighbour", [(0, 1, 0), b"\x00\x01\x00"], ids=["tuple", "bytes"])
def test_one_label_check_names_the_bad_label(labels, message, neighbour):
    # The step, weyl_dimension and dynkin_to_stable refuse a label by one
    # check; the step names it behind a valid label of either key type.  A
    # bool or a float is refused, not taken for an int or left to fail
    # unnamed when the step packs it.
    calls = [
        lambda: tensor_with_adjoint({neighbour: 1, labels: 1}, 3),
        lambda: weyl_dimension(labels, 3),
        lambda: dynkin_to_stable(labels, 3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("key", [tuple, bytes])
def test_errors_name_a_label_as_a_tuple(key):
    # A bytes label is printed as the tuple of its entries, as every
    # other message prints a label.
    with pytest.raises(ValueError, match=r"got 0 for \(1, 0, 0\)$"):
        tensor_with_adjoint({key((1, 0, 0)): 0}, 3)
    with pytest.raises(ValueError, match=r"^\(1, 0\) is not a weight"):
        dynkin_to_stable(key((1, 0)), 2)


def test_mixed_label_types_give_tuples():
    result = tensor_with_adjoint({b"\x01\x00\x00\x00": 1, (0, 0, 0, 1): 1}, 4)
    expected = box_move_tensor_with_adjoint({(1, 0, 0, 0): 1, (0, 0, 0, 1): 1}, 4)
    assert result == expected
    assert all(type(labels) is tuple for labels in result)


@pytest.mark.parametrize(
    "state,lost,mult",
    [
        ({(0, 0, 0): 1}, (0, 0, 0), 1),
        ({bytes(3): 1}, (0, 0, 0), 1),
        ({bytes(3): 1, (1, 0, 1): 2}, (0, 0, 0), 1),
        ({bytes(3): 1, (1, 0, 1): 2}, (1, 0, 1), 2),
    ],
    ids=["tuple", "bytes", "mixed, bytes label lost", "mixed, tuple label lost"],
)
def test_lost_trivial_summand_names_the_input_label(state, lost, mult, monkeypatch):
    # V x V* x state holds each input label at least as often as the
    # state does, once for the trivial summand.  A V* pass that loses
    # every image on one input label leaves the subtraction short: the
    # step raises, naming that label as a tuple, instead of clamping.
    # The V* pass keys its table by bytes, whatever the state's key type,
    # so the fault is planted there.
    pieri_to_bytes = lie._pieri_to_bytes

    def lossy(entries, always, deltas, n):
        out = pieri_to_bytes(entries, always, deltas, n)
        out.pop(bytes(lost), None)
        return out

    monkeypatch.setattr(lie, "_pieri_to_bytes", lossy)
    message = rf"^{re.escape(str(lost))} occurs fewer than {mult} times in V x V\* x state$"
    with pytest.raises(ArithmeticError, match=message):
        tensor_with_adjoint(state, 3)


@pytest.mark.parametrize(
    "state,drains,key_type",
    [
        ({bytes(3): 1, b"\x01\x00\x01": 2}, 1, bytes),
        ({(0, 0, 0): 1, (1, 0, 1): 2}, 2, tuple),
        ({bytes(3): 1, (1, 0, 1): 2}, 2, tuple),
    ],
    ids=["bytes", "tuple", "mixed"],
)
def test_bytes_step_returns_its_v_star_table(state, drains, key_type, monkeypatch):
    # The V* pass keys its table by bytes, so a bytes state's result is
    # that table: the step drains only the V pass's table.  A tuple or
    # mixed state's result is the V* table drained once more into tuples.
    calls = []
    drain = lie._drain

    def counted_drain(table):
        calls.append(len(table))
        return drain(table)

    monkeypatch.setattr(lie, "_drain", counted_drain)
    result = tensor_with_adjoint(state, 3)
    assert len(calls) == drains
    assert {type(labels) for labels in result} == {key_type}
    tuples = {tuple(labels): m for labels, m in state.items()}
    assert {tuple(labels): m for labels, m in result.items()} == box_move_tensor_with_adjoint(
        tuples, 3
    )


def test_tensor_rejects_bad_multiplicity():
    with pytest.raises(ValueError):
        tensor_with_adjoint({trivial_labels(3): 0}, 3)
    # Only an int keeps the step exact: a float, a Fraction or a bool is refused.
    for mult in (1.5, Fraction(1), True):
        with pytest.raises(ValueError, match="^multiplicities must be positive"):
            tensor_with_adjoint({trivial_labels(3): mult}, 3)


def test_adjoint_power_small_cases():
    for n in range(1, 6):
        assert adjoint_power(0, n) == {trivial_labels(n): 1}
        assert adjoint_power(1, n) == {adjoint_labels(n): 1}
    assert adjoint_power(3, 5)[(3, 0, 0, 0, 3)] == 1
    assert adjoint_power(2, 5)[trivial_labels(5)] == 1


def test_stable_bound_is_sharp():
    # 2k <= n+1 is sharp: the multiplicities of power k sum to the same at
    # n = 2k - 1 as at 2k + 1, and to one less at 2k - 2, where [1^k, 1^k],
    # which needs 2k rows, has no Dynkin label.
    for k in range(2, 6):
        column = StableLabel((1,) * k, (1,) * k)
        total = {n: sum(adjoint_power(k, n).values()) for n in (2 * k - 2, 2 * k - 1, 2 * k + 1)}
        assert total[2 * k - 1] == total[2 * k + 1] == total[2 * k - 2] + 1
        assert adjoint_power(k, 2 * k - 1)[stable_to_dynkin(column, 2 * k - 1)] == 1
        with pytest.raises(ValueError, match="too small"):
            stable_to_dynkin(column, 2 * k - 2)


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
    with pytest.raises(ValueError, match="tuples of ints"):
        StableLabel([1], [1])  # a list side would make a label that cannot hash


@pytest.mark.parametrize("part", [1.5, 2.0, True])
def test_non_int_parts_and_labels_are_refused(part):
    # A float or bool passes for an int in the arithmetic, which would
    # name a "label" no irrep has.
    with pytest.raises(ValueError, match="tuples of ints"):
        StableLabel((part,), (part,))
    for convert in (weyl_dimension, dynkin_to_stable):
        with pytest.raises(ValueError, match=re.escape(f"got {part!r} in")):
            convert((part, 0, 0, part), 4)


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
    boxes = draw(st.integers(0, 8))
    label = StableLabel(draw(partitions_of(boxes)), draw(partitions_of(boxes)))
    # Two sides of 8 one-box rows need rank 15, the most any 8-box label needs.
    n = draw(st.integers(max(1, len(label.left) + len(label.right) - 1), 15))
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


def triangular_blocks(k_max, n):
    """Blocks 0..k_max by subtraction: block k is power k, in stable
    labels, less c(k, p) copies of each earlier block p."""
    blocks = []
    power = {trivial_labels(n): 1}
    for k in range(k_max + 1):
        if k:
            power = tensor_with_adjoint(power, n)
        block = Counter()
        for labels, m in power.items():
            block[dynkin_to_stable(labels, n)] += m
        for c, earlier in zip(coefficient_row(k).values, blocks):
            for label, m in earlier.items():
                block[label] -= c * m
        blocks.append({label: m for label, m in block.items() if m})
    return blocks


def standard_tableaux(parts):
    """f^lambda by removing the box of n from each corner in turn."""
    if not parts:
        return 1
    corners = [i for i, part in enumerate(parts) if i + 1 == len(parts) or parts[i + 1] < part]
    return sum(
        standard_tableaux(tuple(p for p in parts[:i] + (parts[i] - 1,) + parts[i + 1 :] if p))
        for i in corners
    )


def closed_form_block(k):
    """f^lambda f^mu copies of each pair [lambda, mu] of partitions of k."""
    shapes = lie._partitions(k)
    return {
        StableLabel(lam, mu): standard_tableaux(lam) * standard_tableaux(mu)
        for lam, mu in product(shapes, repeat=2)
    }


@pytest.mark.parametrize("k", range(7))
def test_extracted_blocks_are_the_triangular_and_closed_forms(k):
    # The blocks the oracle returns for its certified powers are those a
    # subtraction of the earlier blocks leaves, at both ranks either side
    # of the stable bound, and each is its closed form.
    for n in (max(1, 2 * k - 1), 2 * k + 1):
        blocks = extract_stable_blocks(k, n)
        assert blocks == triangular_blocks(k, n) == [closed_form_block(j) for j in range(k + 1)]


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
    # The trivial rep lives only in block 0.  These blocks are the closed
    # form by construction, so this reads what the extraction builds;
    # test_extracted_blocks_are_the_triangular_and_closed_forms observes
    # it, and rank stability, in the blocks a subtraction leaves.
    for block in blocks[1:]:
        assert StableLabel((), ()) not in block


def test_extract_blocks_stable_across_ranks():
    # Extraction returns the rank-free closed form of every power that
    # passes and raises at the first that fails, so its blocks at two ranks
    # always agree; what holds across ranks is that the report passes at
    # both.  test_extracted_blocks_are_the_triangular_and_closed_forms
    # observes the blocks themselves, by subtraction, at both ranks.
    for k, n in ((2, 3), (2, 5), (3, 5), (3, 7)):
        assert verify_stable_decomposition(k, n).passed


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
    # Power 4 holds each label [lambda, mu] with two boxes a side
    # c(4, 2) f^lambda f^mu times, so a wrong c(4, 2) names every such
    # label, expected (c +- 1) f f against observed c f f, and no other.
    c = lie.coefficient_row(4).values[2]
    plant_miscounted_coefficient(monkeypatch, error)
    report = verify_stable_decomposition(4, 7)
    assert not report.passed
    assert all(check.passed for check in report.checks[:4])
    check = report.checks[4]
    assert check.residual == {
        label: ((c + error) * f, c * f) for label, f in closed_form_block(2).items()
    }
    with pytest.raises(BlockExtractionError, match="power 4 at rank 7"):
        extract_stable_blocks(4, 7)


def test_planted_dropped_label_is_named_by_the_count(monkeypatch):
    # [(3, 1), (2, 2)] first occurs in power 4, 1 * 3 * 2 times.  A step
    # that drops it leaves the power one label short of the closed form,
    # and the missing label, which no pass over the power can see, is
    # named by the enumeration that the shortfall starts.
    label = StableLabel((3, 1), (2, 2))
    plant_dropped_label(monkeypatch, label, 7)
    report = verify_stable_decomposition(4, 7)
    assert [check.passed for check in report.checks] == [True] * 4 + [False]
    check = report.checks[4]
    assert check.residual == {label: (6, 0)}
    assert check.dimension_observed == check.dimension_expected - 6 * weyl_dimension(
        stable_to_dynkin(label, 7), 7
    )
    with pytest.raises(BlockExtractionError, match="power 4 at rank 7"):
        extract_stable_blocks(4, 7)


def test_passing_powers_enumerate_no_expected_pair(monkeypatch):
    # The expected pairs are enumerated only when the count falls short,
    # and each one enumerated is converted to its Dynkin labels.
    monkeypatch.setattr(lie, "stable_to_dynkin", lambda *args: pytest.fail("enumerated"))
    assert verify_stable_decomposition(8, 15).passed


def test_planted_dual_swap_fails_its_power(monkeypatch):
    # Every check but the label-by-label comparison passes with the swap,
    # so the comparison alone fails power 5, naming both labels against
    # their c(5, 5) f^lambda f^mu = 1 * 1 * 4.
    plant_dual_swap(monkeypatch)
    report = verify_stable_decomposition(5, 9)
    assert [check.passed for check in report.checks] == [True] * 5 + [False]
    check = report.checks[5]
    assert check.residual == {SWAPPED[0]: (4, 3), SWAPPED[1]: (4, 5)}
    assert check._replace(residual={}).passed
    with pytest.raises(BlockExtractionError, match="power 5 at rank 9"):
        extract_stable_blocks(5, 9)


def test_partition_counts():
    # p(0..12), OEIS A000041; each partition once, as weakly decreasing parts.
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for boxes, count in enumerate(counts):
        partitions = lie._partitions(boxes)
        assert len(partitions) == len(set(partitions)) == count
        for parts in partitions:
            assert sum(parts) == boxes and list(parts) == sorted(parts, reverse=True)
            assert all(part > 0 for part in parts)


def test_tableaux_squares_sum_to_the_factorial():
    # Sum over partitions lambda of k of (f^lambda)^2 = k!, the dimension
    # count of the regular representation of the symmetric group S_k.
    for k in range(13):
        assert sum(lie._tableaux(parts) ** 2 for parts in lie._partitions(k)) == math.factorial(k)
    assert [lie._tableaux(parts) for parts in lie._partitions(4)] == [1, 3, 2, 3, 1]


def test_each_distinct_label_is_converted_once(monkeypatch):
    # Every label of power k - 1 recurs in power k for k >= 2, so the
    # distinct labels of powers 0..10 are those of power 10: 3,583 of
    # the 7,118 labels the eleven powers hold between them.  Each power
    # is self-dual, and a label's dual (its reversal) reuses the label's
    # measurement, so each dual pair is measured once, by one split of
    # its runs: 139 of the 3,583 labels are self-dual, and
    # (3,583 + 139) / 2 = 1,861.  D(N) is computed once per partition
    # that is a side of some label: every partition of 0..10, 139 of them.
    splits = []
    sides = []
    split, side_dimension = lie._split, lie._partition_dimension
    monkeypatch.setattr(lie, "_split", lambda labels, n: splits.append(n) or split(labels, n))
    monkeypatch.setattr(
        lie,
        "_partition_dimension",
        lambda parts, rows: sides.append(parts) or side_dimension(parts, rows),
    )
    report = verify_stable_decomposition(10, 19)
    assert report.passed
    power = adjoint_power(10, 19)
    assert len(power) == 3583
    assert sum(labels == labels[::-1] for labels in power) == 139
    assert len(splits) == 1861
    partitions = {side for labels in power for side in dynkin_to_stable(labels, 19)}
    assert sorted(sides) == sorted(partitions)
    assert len(sides) == 139


def test_measurement_cache_holds_one_entry_per_dual_pair():
    # A label whose dual is cached reads that entry with its sides swapped
    # and stores nothing, so the cache ends with one entry per dual pair,
    # (3,583 + 139) / 2 = 1,861 at (10, 19), and no label beside its dual.
    # The entries share one tuple per partition: 139 in all.
    powers = lie._certified_powers(10, 19)
    for check in powers:
        assert check.passed
        if check.power == 10:
            measured = powers.gi_frame.f_locals["measured"]
    assert len(measured) == 1861
    assert all(labels[::-1] not in measured for labels in measured if labels != labels[::-1])
    assert len({id(side) for entry in measured.values() for side in entry[:2]}) == 139


def test_headline_certification_stays_under_its_traced_peak():
    # No block is held, the cache holds one entry per dual pair, and the
    # tensor step holds one full Pieri table at a time, returning its V*
    # pass's bytes-keyed table with no unpacking stage.  The traced peak
    # of the (10, 19) certification was 1.94-1.97 MiB on CPython 3.10-3.12
    # while every extracted block was kept and both labels of each pair
    # cached; on CPython 3.11 it was 1.32 MiB while the step also kept its
    # packed input keys and both Pieri tables at once, 1.12 MiB while it
    # unpacked an int-keyed V* table into a new dict, and is 1.04 MiB now.
    tracemalloc.start()
    try:
        assert verify_stable_decomposition(10, 19).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.08 * 2**20


def test_block_extraction_reads_one_coefficient_row_per_power(monkeypatch):
    rows = []
    row = lie.coefficient_row
    monkeypatch.setattr(lie, "coefficient_row", lambda k: rows.append(k) or row(k))
    assert verify_stable_decomposition(6, 11).passed
    assert rows == list(range(7))


def test_reports_at_two_ranks_back_to_back_equal_fresh_ones():
    # D(N) depends on the rank N, so the oracle keeps it for one run only:
    # a run at one rank leaves nothing behind for a run at another.  Each
    # power's dimension is the sum over its labels of the public
    # weyl_dimension, which starts from nothing on every call.
    reports = {}
    for n in (11, 15, 11):
        report = verify_stable_decomposition(6, n)
        assert report.passed
        assert [check.dimension_observed for check in report.checks] == [
            sum(m * weyl_dimension(labels, n) for labels, m in adjoint_power(k, n).items())
            for k in range(7)
        ]
        assert reports.setdefault(n, report.checks) == report.checks
    assert extract_stable_blocks(6, 11) == extract_stable_blocks(6, 15)


def test_planted_wrong_partition_dimension_fails_its_power(monkeypatch):
    # D(N) of (2, 1) doubled.  It is computed once, when power 3 first
    # holds a label with that side, and every later label with that side
    # reads the cached factor, so powers 3 and 4 fail their dimension
    # checks and nothing else.
    computed = []
    side_dimension = lie._partition_dimension

    def planted(parts, rows):
        computed.append(parts)
        return side_dimension(parts, rows) * (2 if parts == (2, 1) else 1)

    monkeypatch.setattr(lie, "_partition_dimension", planted)
    report = verify_stable_decomposition(4, 7)
    assert [check.passed for check in report.checks] == [True, True, True, False, False]
    for check in report.checks[3:]:
        assert check.dimension_observed != check.dimension_expected
        assert check._replace(dimension_observed=check.dimension_expected).passed
    assert computed.count((2, 1)) == 1
    with pytest.raises(BlockExtractionError, match="power 3 at rank 7"):
        extract_stable_blocks(4, 7)
    # A factor that leaves a label's cross product with a remainder is
    # refused by the exact division instead.
    monkeypatch.setattr(
        lie, "_partition_dimension", lambda parts, rows: side_dimension(parts, rows) + 1
    )
    with pytest.raises(ExactDivisionError):
        verify_stable_decomposition(4, 7)


def test_oracle_steps_through_the_public_tensor_step(monkeypatch):
    # The benchmark's traced run counts irreps per power from the spans
    # of lie.tensor_with_adjoint, so the oracle calls it through the
    # module, once per power, with (state, n).  The states are bytes-keyed;
    # the test above counts the 1,861 measurements of the same run.
    calls = []
    step = lie.tensor_with_adjoint

    def counted_step(state, n):
        result = step(state, n)
        calls.append((n, len(result), {type(labels) for labels in state}))
        return result

    monkeypatch.setattr(lie, "tensor_with_adjoint", counted_step)
    assert verify_stable_decomposition(10, 19).passed
    assert [rank for rank, _, _ in calls] == [19] * 10
    assert [size for _, size, _ in calls] == [1, 6, 15, 40, 89, 210, 435, 919, 1819, 3583]
    assert all(types == {bytes} for _, _, types in calls)


def test_step_label_off_the_root_lattice_is_refused(monkeypatch):
    # The oracle measures its own step's labels without validating them
    # again, but it still refuses one whose mean part is not an integer:
    # no weight of an adjoint tensor power has one.  Here power 1 also
    # holds the defining representation.
    step = lie.tensor_with_adjoint

    def planted(state, n):
        out = step(state, n)
        out[bytes((1,) + (0,) * (n - 1))] = 1
        return out

    monkeypatch.setattr(lie, "tensor_with_adjoint", planted)
    with pytest.raises(ArithmeticError, match=r"power 1 holds \(1, 0, 0\), which is not a weight"):
        verify_stable_decomposition(2, 3)


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
