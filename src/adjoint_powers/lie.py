"""Exact representation-theoretic oracle for A-series adjoint tensor powers.

Independently certifies the coefficient formulas: the k-th tensor power
of the adjoint representation of A_n is decomposed exactly (integer
arithmetic throughout) and compared label by label with the paper's
formula lifted to labels, in the stable range 2k <= n+1: each pair
[lambda, mu] of partitions of j occurs C(k, j) d_k^j f^lambda f^mu
times, f^lambda counted by the hook-length formula.  One pass over the
powers builds each power's check, and keeps no block; the two entry
points only collect the checks: verify_stable_decomposition reports
them as data, untimed (the CLI times the call), extract_stable_blocks
returns the closed-form blocks of the powers that pass and raises on
the first that fails.  Two arithmetic faults raise from both instead of
being reported: a Weyl quotient with a remainder (ExactDivisionError)
and a label off the root lattice (ArithmeticError).

Dynkin labels are tuples of n nonnegative ints or bytes of length n:
tensor_with_adjoint, weyl_dimension and dynkin_to_stable take either,
and the oracle keeps its powers as bytes (52 bytes a label at n = 19,
against 192 for a tuple).  weyl_dimension and dynkin_to_stable take,
and stable_to_dynkin returns, tuple labels with entries of any size;
the tensor step takes entries up to 253 only, enough for every power
up to 127.  Tensor steps always multiply by the adjoint, factored
through V x V* = adjoint + trivial: Pieri's rule for the defining rep
V adds a box to a row, Pieri's rule for its dual removes one, and the
input state is subtracted once, so no weight is reflected to the
dominant chamber.  Inside a step each label is moved as one int, one
byte per Dynkin label in little-endian order, so a box move is one
integer addition that no byte carries out of.  The V pass keys its
table by these ints; the V* pass drains that table and stores each
image under its bytes, so its table is a bytes state's result as it
stands, with no unpacking stage, and a tuple state's result is that
table drained once into tuple keys.  The step holds one full table at
a time, and packs no list of input keys.  A label is measured by one
pass over its runs of equal parts, one run per nonzero Dynkin
label, found inside the split, so nothing builds an (n+1)-vector: the
pass splits the highest weight at the floor of its mean part into a
pair [lambda, mu] of partitions, for the oracle's labels exactly the
stable pair.  The dimension is Weyl's product in factored form,
D_lambda(N) D_mu(N) times one small cross factor per row of lambda and
row of mu (N = n + 1), where D(N) is Weyl's product for one partition
alone: per row, one falling-factorial ratio against the zero rows and
one factor per later row; the oracle computes D(N) once per partition
for its rank and keeps it for the run, and measures its own step's
labels without validating them again.  A label and its dual (the
reversed labels) share one stored measurement, read by the dual with
its sides swapped: at (10, 19), 1,861 serve the 3,583 distinct labels,
and D(N), f, the box count and the shifted parts l_i - i are computed
for 139 partitions, one shared tuple each.
Power k's coefficients come from one coefficient_row(k); the labels
the formula expects are counted, and enumerated only on a shortfall.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, compress, product, repeat, starmap
from math import factorial, perm, prod
from operator import ge, sub

from .coefficients import coefficient_row
from .combinatorics import derangement, exact_div

__all__ = [
    "BlockExtractionError",
    "PowerCheck",
    "StableLabel",
    "VerificationReport",
    "adjoint_labels",
    "adjoint_power",
    "dynkin_to_stable",
    "extract_stable_blocks",
    "leading_block_label",
    "stable_to_dynkin",
    "tensor_with_adjoint",
    "trivial_labels",
    "verify_stable_decomposition",
    "weyl_dimension",
]

Labels = tuple[int, ...]

class BlockExtractionError(ArithmeticError):
    """Block extraction falsified the decomposition at this rank."""


def _check_rank(n: int) -> None:
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")


def _check_labels(keys, n: int) -> None:
    """Refuse a state, or a 1-tuple of labels, unless every label holds n
    nonnegative ints: one C-level pass per property, the int and sign
    passes skipped when every key is bytes, whose entries are ints from 0
    to 255; a failed pass loops only to name the first bad label."""
    all_bytes = set(map(type, keys)) == {bytes}
    entries = () if all_bytes else chain.from_iterable(keys)
    valid = set(map(len, keys)) == {n} and set(map(type, entries)) <= {int}
    if valid and (all_bytes or min(map(min, keys)) >= 0):
        return
    for labels in keys:
        if len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")
        for label in labels:
            if type(label) is not int:
                raise ValueError(f"labels must be ints, got {label!r} in {tuple(labels)}")
        if min(labels) < 0:
            raise ValueError(f"labels must be nonnegative, got {labels}")


def trivial_labels(n: int) -> Labels:
    _check_rank(n)
    return (0,) * n


def adjoint_labels(n: int) -> Labels:
    _check_rank(n)
    if n == 1:
        return (2,)
    return (1,) + (0,) * (n - 2) + (1,)


def _shifted(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The shifted parts l_i - i of a partition, rows counted from 0."""
    return tuple(part - i for i, part in enumerate(parts))


def _partition_dimension(parts: tuple[int, ...], rows: int) -> int:
    """D_lambda(N): Weyl's product over i < j of (l_i - l_j + j - i) / (j - i)
    for the partition lambda padded with zeros to N = rows rows, the
    dimension of its irreducible of gl_N.

    Row i of lambda meets the N - len(lambda) zero rows in one ratio of
    falling factorials (math.perm), so a huge part costs no more than a
    small one, and each later row j of lambda in one factor, the
    difference of the shifted parts l_i - i and l_j - j.  The
    denominators j - i of row i, over all later rows, multiply to
    (N - 1 - i)!.  The single division is exact and checked.
    """
    zeros = rows - len(parts)
    shifted = _shifted(parts)
    numerator = denominator = 1
    for i, top in enumerate(shifted):
        numerator *= perm(top + rows - 1, zeros) * prod(map(top.__sub__, shifted[i + 1 :]))
        denominator *= factorial(rows - 1 - i)
    return exact_div(numerator, denominator)


def _split(labels: Labels, n: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The highest weight split at the floor of its mean part, in one
    pass over its runs: (left, right, remainder of the mean).

    Each run above the shift adds its length in left parts, each run
    below it its length in right parts, so both sides are partitions and
    together hold at most n rows.  The remainder is zero exactly when the
    two sides hold equal box counts.
    """
    # The runs, top row first, as (rows, part): a run ends at each nonzero
    # Dynkin label and at row n, so only the nonzero labels are visited.
    runs = []
    start = 0
    part = sum(labels)
    for p in compress(range(n), labels):
        runs.append((p + 1 - start, part))
        start = p + 1
        part -= labels[p]
    runs.append((n + 1 - start, 0))
    shift, remainder = divmod(sum(rows * part for rows, part in runs), n + 1)
    left = chain.from_iterable(repeat(part - shift, rows) for rows, part in runs if part > shift)
    right = chain.from_iterable(
        repeat(shift - part, rows) for rows, part in reversed(runs) if part < shift
    )
    return tuple(left), tuple(right), remainder


def _pair_dimension(
    left: tuple[int, ...], right: tuple[int, ...], rows: int, d_left: int, d_right: int
) -> int:
    """dim [lambda, mu] at N = rows, by the factored form of Weyl's product,
    given the shifted parts of each side (:func:`_shifted`) and its D(N)
    (:func:`_partition_dimension`).

    With rows i of lambda and j of mu counted from 0, so that
    d = N - 1 - i - j, the cross factor of the pair is
    (d + l_i + m_j) d / ((d + l_i)(d + m_j)).  The d and the d + l_i
    run over consecutive integers as j does, and the d + m_j as i does,
    so their products are falling factorials; only the
    d + l_i + m_j = (N - 1 + l_i - i) + (m_j - j) need the double loop.
    """
    numerator = d_left * d_right
    denominator = 1
    across, down = len(right), len(left)
    for i, part in enumerate(left):
        top = rows - 1 + part
        numerator *= perm(rows - 1 - i, across) * prod(map(top.__add__, right))
        denominator *= perm(top, across)
    for part in right:
        denominator *= perm(rows - 1 + part, down)
    return exact_div(numerator, denominator)


def weyl_dimension(labels: Labels, n: int) -> int:
    """Dimension of the irreducible with the given highest weight.

    Weyl's product over i < j of (l_i - l_j + j - i) / (j - i) on the
    parts l of the highest weight, in a factored form.  Split the parts
    at an integer s into a pair [lambda, mu]: l_i = s + lambda_i on the
    top rows, l_{N+1-j} = s - mu_j on the bottom rows, s between, with
    N = n + 1.  Any s will do; s is the floor of the mean part, which
    needs no integrality and, for the weights of adjoint tensor powers,
    gives the stable pair.  Then, with d = N + 1 - i - j,

        dim = D_lambda(N) D_mu(N) prod_{i <= len(lambda), j <= len(mu)}
              (d + lambda_i + mu_j) d / ((d + lambda_i)(d + mu_j)),

    which is Weyl's pairs regrouped: D_lambda(N), Weyl's product for
    lambda alone, counts every pair with a lambda row; D_mu(N) counts
    every pair with a mu row; and the pair of lambda row i and mu row j,
    whose true factor is (d + lambda_i + mu_j) / d, is counted by both,
    as (d + lambda_i) / d and (d + mu_j) / d, which the cross factor
    corrects.  Each D is one falling-factorial ratio per row against the
    zero rows, and one factor per pair of rows of its partition
    (:func:`_partition_dimension`); the division is exact and checked.
    """
    _check_rank(n)
    _check_labels((labels,), n)
    left, right, _ = _split(labels, n)
    sides = (_partition_dimension(left, n + 1), _partition_dimension(right, n + 1))
    return _pair_dimension(_shifted(left), _shifted(right), n + 1, *sides)


def _pieri(entries, always: int, deltas: list[int], n: int) -> dict[int, int]:
    """One Pieri pass over packed labels, merged: each (key, mult) of
    ``entries`` moves by ``always`` and by each delta whose row the
    key's bytes allow, deltas[p] where byte p is nonzero."""
    out: dict[int, int] = {}
    for key, mult in entries:
        moved = key + always
        out[moved] = out.get(moved, 0) + mult
        for delta in compress(deltas, key.to_bytes(n, "little")):
            moved = key + delta
            out[moved] = out.get(moved, 0) + mult
    return out


def _pieri_to_bytes(entries, always: int, deltas: list[int], n: int) -> dict[bytes, int]:
    """:func:`_pieri` storing each image under image.to_bytes(n, "little"):
    the V* pass, whose table is a bytes state's result.  The body is
    written out again, not shared with _pieri through a packing callable,
    since a call per image made the step slower."""
    out: dict[bytes, int] = {}
    for key, mult in entries:
        moved = (key + always).to_bytes(n, "little")
        out[moved] = out.get(moved, 0) + mult
        for delta in compress(deltas, key.to_bytes(n, "little")):
            moved = (key + delta).to_bytes(n, "little")
            out[moved] = out.get(moved, 0) + mult
    return out


def _drain(table: dict):
    """The (key, value) pairs of ``table``, each popped as it is read, so
    an entry is freed once its reader moves on; the table ends empty."""
    return starmap(table.popitem, repeat((), len(table)))


def tensor_with_adjoint(state: dict[Labels, int], n: int) -> dict[Labels, int]:
    """One tensor step: decompose (state) x adjoint into irreducibles.

    Factored through V x V* = adjoint + trivial, V the defining rep.
    Pieri for V adds a box to every row i where the result is dominant
    (i = 0 or a_{i-1} > 0); the intermediate labels are merged, then
    Pieri for V* removes a box from every row j where the result is
    dominant (j = n or a_j > 0).  Each pass is called with its fixed
    move and deltas: the V pass is _pieri, keyed by packed ints, and the
    V* pass is _pieri_to_bytes, keyed by bytes.  Subtracting the input
    state once removes the trivial summand; a multiplicity that would go
    negative raises instead of being clamped.  No weight is reflected.
    Multiplicities must be positive ints: a float, a Fraction or a bool
    raises ValueError, so the arithmetic stays exact.

    Labels are tuples of n nonnegative ints, or bytes of length n, with
    every entry at most 253; a label with a larger entry raises
    ValueError.  The result is keyed by bytes when every input label is
    bytes, and by tuples otherwise.  Inside the step a label is moved as
    one int, packed by int.from_bytes in little-endian order with one
    byte per Dynkin label, so a box move is one addition of a precomputed
    delta: a box added to row p + 1 adds byte(p + 1) - byte(p), lowering
    a_p and raising a_{p+1}.  A move lowers only a nonzero byte, so
    nothing borrows, and a step raises an entry by at most 2, so no
    byte passes 255 and none carries into its neighbour.  The rows a
    move may touch are read in C, by compress over the key's bytes.
    The step holds one full table at a time: an input label is packed
    as the V pass reads it, and the V pass's table, keyed by the packed
    ints, is drained, entry by entry, as the V* pass reads it.  The V*
    pass stores each image under its bytes, and the trivial summand is
    subtracted there, each input label looked up as bytes.  So for a
    bytes state that table is returned as it stands, in the order in
    which the V* pass found its labels, with no unpacking stage, and for
    a tuple or mixed state it is drained once into tuple keys, in the
    reverse order; callers must not rely on either order.  The V pass
    keeps its packed int keys because bytes keys in both passes, which
    save no more memory, made the step slower.  A label of power k has
    no entry above 2k, so the powers up to 127 stay in the domain.
    """
    _check_rank(n)
    if not state:
        return {}
    _check_labels(state, n)
    if set(map(type, state.values())) != {int} or min(state.values()) <= 0:
        for labels, mult in state.items():
            if type(mult) is not int or mult <= 0:
                raise ValueError(
                    f"multiplicities must be positive ints, got {mult!r} for {tuple(labels)}"
                )
    as_bytes = set(map(type, state)) == {bytes}
    # Bytes labels below 128, as every oracle power's, pass by one C call
    # each; only another state is scanned for its largest entry.
    if not (as_bytes and all(map(bytes.isascii, state))):
        widest = max(state, key=max)
        if max(widest) > 253:
            raise ValueError(
                f"label {tuple(widest)} has an entry above 253, which the step"
                " could raise past the 255 of one byte"
            )
    # field[p] is the packed unit of Dynkin label a_p, its byte p.
    field = [1 << 8 * p for p in range(n)]
    # Pieri for V: below a nonzero a_p, row p + 1 gains a box.  For V*:
    # at a nonzero a_p, row p loses one.
    gain = [b - a for a, b in zip(field, field[1:] + [0])]
    lose = [b - a for a, b in zip(field, [0] + field[:-1])]
    # Row 0 gains a box, raising a_0; then row n loses one, raising a_{n-1}.
    keys = map(int.from_bytes, state, repeat("little"))
    gained = _pieri(zip(keys, state.values()), field[0], gain, n)
    out = _pieri_to_bytes(_drain(gained), field[-1], lose, n)
    del gained
    for key, mult in zip(state if as_bytes else map(bytes, state), state.values()):
        left = out.get(key, 0) - mult
        if left < 0:
            raise ArithmeticError(f"{tuple(key)} occurs fewer than {mult} times in V x V* x state")
        if left:
            out[key] = left
        else:
            del out[key]
    if as_bytes:
        return out
    return {tuple(key): mult for key, mult in _drain(out)}


def adjoint_power(k: int, n: int) -> dict[Labels, int]:
    """Decomposition of the k-th adjoint tensor power, from the trivial rep up.

    Keyed by tuples.  Each of the k tensor steps raises an entry by at
    most 2, so every k <= 127 stays within the step's domain of entries
    up to 253.
    """
    if k < 0:
        raise ValueError("power must be >= 0")
    state = {trivial_labels(n): 1}
    for _ in range(k):
        state = tensor_with_adjoint(state, n)
    return state


class StableLabel(namedtuple("StableLabel", ["left", "right"])):
    """Rank-free name for a stable-range irrep: a pair of partitions.

    Tracelessness forces equal box counts on the two sides; ((p,), (p,))
    names the leading irrep of block p.  Both are checked when a label
    is made, and each side must be a tuple of ints.  An immutable named
    tuple ``(left, right)``: it compares, hashes and sorts as that plain
    tuple, so ``StableLabel((1,), (1,)) == ((1,), (1,))``.
    """

    __slots__ = ()

    def __new__(cls, left: tuple[int, ...], right: tuple[int, ...]) -> StableLabel:
        for side in (left, right):
            if type(side) is not tuple or not all(type(part) is int for part in side):
                raise ValueError(f"sides must be tuples of ints, got {side!r}")
            # Weakly decreasing with a positive last part: all parts positive.
            if side and (side[-1] <= 0 or not all(map(ge, side, side[1:]))):
                raise ValueError(f"not a partition: {side}")
        if sum(left) != sum(right):
            raise ValueError(f"sides must have equal box counts: {left} vs {right}")
        return tuple.__new__(cls, (left, right))

    @classmethod
    def _make(cls, iterable) -> StableLabel:
        # namedtuple's _make, which _replace calls, would skip the checks.
        return cls(*iterable)


def leading_block_label(p: int) -> StableLabel:
    if p < 0:
        raise ValueError("block index must be >= 0")
    if p == 0:
        return StableLabel((), ())
    return StableLabel((p,), (p,))


def stable_to_dynkin(label: StableLabel, n: int) -> Labels:
    """Dynkin labels of a stable label at a concrete rank.

    Left parts enter from the left end of the weight vector, right parts
    subtract from the right end; the result must stay weakly decreasing,
    otherwise the rank is too small for the label.
    """
    _check_rank(n)
    if len(label.left) + len(label.right) > n + 1:
        raise ValueError(f"rank {n} too small for {label}")
    vec = [0] * (n + 1)
    for i, part in enumerate(label.left):
        vec[i] += part
    for i, part in enumerate(label.right):
        vec[n - i] -= part
    labels = tuple(map(sub, vec, vec[1:]))
    if min(labels) < 0:
        raise ValueError(f"rank {n} too small for {label}")
    return labels


def dynkin_to_stable(labels: Labels, n: int) -> StableLabel:
    """Split a dominant weight into its stable partition pair.

    Centers the weight vector so positive and negative parts balance;
    the centering shift must be integral, which holds exactly for the
    weights occurring in adjoint tensor powers.  Works on the runs of
    equal parts (:func:`_split`).
    """
    _check_rank(n)
    _check_labels((labels,), n)
    left, right, remainder = _split(labels, n)
    if remainder:
        raise ValueError(f"{tuple(labels)} is not a weight of an adjoint tensor power")
    return StableLabel(left, right)


def _partitions(boxes: int, cap: int = 0) -> list[tuple[int, ...]]:
    """Every partition of ``boxes`` with no part above ``cap`` (if given),
    as weakly decreasing positive parts, largest first; 0 has only ()."""
    parts = range(min(boxes, cap or boxes), 0, -1)
    return [(part, *rest) for part in parts for rest in _partitions(boxes - part, part)] or [()]


def _tableaux(parts: tuple[int, ...]) -> int:
    """f^lambda, the number of standard Young tableaux of shape lambda:
    |lambda|! over the product of its hook lengths, divided exactly."""
    heights = [sum(part > j for part in parts) for j in range(parts[0] if parts else 0)]
    hooks = prod(part - j + heights[j] - i - 1 for i, part in enumerate(parts) for j in range(part))
    return exact_div(factorial(sum(parts)), hooks)


def _check_stable_range(k_max: int, n: int) -> None:
    """Refuse a power and rank outside the stable range 2*k_max <= n+1."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    _check_rank(n)
    if 2 * k_max > n + 1:
        raise ValueError(f"stable range requires 2*k_max <= n+1, got ({k_max}, {n})")


class PowerCheck(
    namedtuple(
        "PowerCheck",
        "power dimension_expected dimension_observed trivial_expected trivial_observed residual",
    )
):
    """Verification record for one tensor power; :attr:`passed` is the
    one definition of a valid power, for both oracle entry points.

    An immutable named tuple with every field required: what the oracle
    checks, the dimension, the trivial count and ``residual``, which maps
    a stable label to its (expected, observed) multiplicity in the power,
    for every label where the two differ.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        dimension_ok = self.dimension_expected == self.dimension_observed
        return dimension_ok and self.trivial_expected == self.trivial_observed and not self.residual


class VerificationReport(namedtuple("VerificationReport", ["k_max", "rank", "checks"])):
    """Outcome of certifying the coefficient formulas at one rank: the
    immutable named tuple ``(k_max, rank, checks)``, ``checks`` a list of
    :class:`PowerCheck`; :attr:`passed` holds when every check passes."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def _certified_powers(k_max: int, n: int):
    """Yield the check of power k, for k = 0..k_max.

    Power k is compared with the closed form label by label: [lambda, mu],
    lambda and mu partitions of j, is expected c_{k,j} f^lambda f^mu
    times (c from coefficient_row(k), f from :func:`_tableaux`), and
    each mismatch is a residual (expected, observed), so a miscounted
    coefficient fails, and so does a fault that moves multiplicity
    between a label and its dual, which keeps every other check.  The
    labels with a nonzero expectation are counted against the sum of
    p(j)^2 over the j with c_{k,j} != 0; only on a shortfall are the
    expected pairs enumerated, a missing one recorded as (expected, 0).
    The stable range is checked before the first power.
    """
    _check_stable_range(k_max, n)
    adjoint_dim = (n + 1) ** 2 - 1
    # Bytes labels, which the step keeps as bytes: power k - 1 has no
    # entry above 2k - 2, within the step's domain for every k <= 127.
    power = {bytes(n): 1}
    # One measurement (left, right, dimension) per dual pair, stored under
    # the first of its labels seen: every label of power k - 1 recurs in
    # power k for k >= 2, and the dual a[::-1] of a label a has the same
    # dimension and the swapped pair, so it reads a's entry with the
    # sides swapped.  At (10, 19), 1,861 entries serve 3,583 labels.  The
    # step's own labels are not validated again.
    measured: dict[bytes, tuple[tuple, tuple, int]] = {}
    # Per partition, (the partition, D(N) at this rank, f^lambda, its box
    # count, its shifted parts), made once and shared by every entry with
    # that side.
    shapes: dict[tuple[int, ...], tuple[tuple[int, ...], int, int, int, tuple[int, ...]]] = {}
    counts = [len(_partitions(j)) for j in range(k_max + 1)]
    for k in range(k_max + 1):
        if k:
            power = tensor_with_adjoint(power, n)
        row = coefficient_row(k).values
        residual: dict[StableLabel, tuple[int, int]] = {}
        dimension = present = 0
        for lab, m in power.items():
            entry = measured.get(lab)
            if entry is not None:
                left, right, dim = entry
            elif (entry := measured.get(lab[::-1])) is not None:
                right, left, dim = entry
            else:
                lam, mu, remainder = _split(lab, n)
                if remainder:
                    raise ArithmeticError(
                        f"power {k} holds {tuple(lab)}, which is not a weight"
                        " of an adjoint tensor power"
                    )
                for side in (lam, mu):
                    if side not in shapes:
                        d_side = _partition_dimension(side, n + 1)
                        shapes[side] = (side, d_side, _tableaux(side), sum(side), _shifted(side))
                left, right = shapes[lam], shapes[mu]
                dim = _pair_dimension(left[4], right[4], n + 1, left[1], right[1])
                measured[lab] = left, right, dim
            dimension += m * dim
            # Both sides hold the same number of boxes; from a sound step, at most k.
            boxes = left[3]
            expected = row[boxes] * left[2] * right[2] if boxes <= k else 0
            present += expected != 0
            if m != expected:
                residual[StableLabel(left[0], right[0])] = (expected, m)
        if present < sum(counts[j] ** 2 for j, c in enumerate(row) if c):
            for j, c in enumerate(row):
                for lam, mu in product(_partitions(j) if c else (), repeat=2):
                    label = StableLabel(lam, mu)
                    if bytes(stable_to_dynkin(label, n)) not in power:
                        residual[label] = (c * _tableaux(lam) * _tableaux(mu), 0)
        yield PowerCheck(
            power=k,
            dimension_expected=adjoint_dim**k,
            dimension_observed=dimension,
            trivial_expected=derangement(k),
            trivial_observed=power.get(bytes(n), 0),
            residual=residual,
        )


def extract_stable_blocks(k_max: int, n: int) -> list[dict[StableLabel, int]]:
    """Blocks 0..k_max as stable-label multisets: block k, f^lambda f^mu
    copies of each pair [lambda, mu] of partitions of k, once power k
    passes the checks of :func:`verify_stable_decomposition`.  A power
    that fails falsifies the decomposition at this rank and raises
    :class:`BlockExtractionError`.
    """
    blocks: list[dict[StableLabel, int]] = []
    for check in _certified_powers(k_max, n):
        if not check.passed:
            raise BlockExtractionError(
                f"power {check.power} at rank {n} falsifies the decomposition: {check}"
            )
        shapes = [(parts, _tableaux(parts)) for parts in _partitions(check.power)]
        blocks.append({StableLabel(lam, mu): f * g for lam, f in shapes for mu, g in shapes})
    return blocks


def verify_stable_decomposition(k_max: int, n: int) -> VerificationReport:
    """Certify the decomposition for every power up to k_max at rank n.

    Per power: (a) total dimension balances against ((n+1)^2 - 1)^k,
    (b) the trivial rep appears exactly d_k times, read from derangement,
    (c) each label [lambda, mu], lambda and mu partitions of j, occurs
    c_{k,j} f^lambda f^mu times, f the number of standard Young tableaux,
    and no other label occurs; each mismatch is a residual.  A failed
    check is data in the report, not an exception; a power passes when
    :attr:`PowerCheck.passed` holds.  Two faults raise instead, since no
    report could hold them: a Weyl quotient that is not exact raises
    :class:`ExactDivisionError`, and a label off the root lattice, with
    no stable pair to report it under, raises ArithmeticError.
    """
    checks = list(_certified_powers(k_max, n))
    return VerificationReport(k_max=k_max, rank=n, checks=checks)
