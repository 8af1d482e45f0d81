"""Exact representation-theoretic oracle for A-series adjoint tensor powers.

Independently certifies the coefficient formulas: the k-th tensor power
of the adjoint representation of A_n is decomposed exactly (integer
arithmetic throughout), the rank-stable blocks are extracted from it
triangularly, and the result is compared block by block against the
combinatorial coefficients, in the stable range 2k <= n+1.  One pass
over the powers builds each power's check and block; the two entry
points only collect it: verify_stable_decomposition reports the checks
as data, extract_stable_blocks returns the blocks and raises on the
first power whose check fails.

Weights are handled in (n+1)-entry integer coordinates defined up to a
uniform shift; the canonical representative has minimum entry zero, so
equality is plain tuple comparison.  Tensor steps always multiply by
the adjoint, factored through V x V* = adjoint + trivial: Pieri's rule
for the defining rep V adds a box to a row, Pieri's rule for its dual
removes one, and the input state is subtracted once, so no weight is
reflected to the dominant chamber.  Weyl dimensions and stable labels
are both read from the runs of equal parts, one run per nonzero Dynkin
label, so neither builds an (n+1)-vector.  A label and its dual (the
reversed labels) share one measurement: the dual has the same dimension
and the swapped stable pair, so at (10, 19) the certification measures
1,861 of the 3,583 distinct labels.  The adjoint weight system is
closed form (the (n+1)n root vectors plus the zero weight with
multiplicity n); it and the Freudenthal recursion are kept as
independent cross-checks, not as part of the product path.
"""

from __future__ import annotations

import time
from collections import namedtuple
from itertools import chain, compress, permutations, repeat
from math import perm
from operator import ge

from .coefficients import coefficient
from .combinatorics import derangement, exact_div

__all__ = [
    "BlockExtractionError",
    "PowerCheck",
    "StableLabel",
    "VerificationReport",
    "adjoint_labels",
    "adjoint_power",
    "adjoint_weight_system",
    "dynkin_to_stable",
    "extract_stable_blocks",
    "freudenthal_weights",
    "leading_block_label",
    "stable_to_dynkin",
    "tensor_with_adjoint",
    "trivial_labels",
    "verify_stable_decomposition",
    "weyl_dimension",
]

Labels = tuple[int, ...]
Weight = tuple[int, ...]


class BlockExtractionError(ArithmeticError):
    """Block extraction falsified the decomposition at this rank."""


def _check_rank(n: int) -> None:
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")


def _check_labels(labels: Labels, n: int) -> None:
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
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


def _normalize_weight(coords) -> Weight:
    """Canonical representative of a weight: shift so the minimum entry is 0."""
    low = min(coords)
    return tuple(c - low for c in coords)


def _partition(labels: Labels, n: int) -> tuple[int, ...]:
    """Highest weight as a weakly decreasing (n+1)-vector with last entry 0."""
    parts = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        parts[i] = parts[i + 1] + labels[i]
    return tuple(parts)


def _labels_of(vec) -> Labels:
    """Dynkin labels of a weakly decreasing weight vector (shift-invariant)."""
    return tuple(vec[i] - vec[i + 1] for i in range(len(vec) - 1))


def _rho(n: int) -> tuple[int, ...]:
    return tuple(range(n, -1, -1))


def _runs(labels: Labels, n: int) -> list[tuple[int, int, int]]:
    """Runs of equal parts of the highest weight, top row first, as
    (first row, row after the last, part).  A run ends at each nonzero
    Dynkin label and at row n, so only the nonzero labels are visited."""
    runs = []
    start = 0
    part = sum(labels)
    for p in compress(range(n), labels):
        runs.append((start, p + 1, part))
        start = p + 1
        part -= labels[p]
    runs.append((start, n + 1, 0))
    return runs


def weyl_dimension(labels: Labels, n: int) -> int:
    """Dimension of the irreducible with the given highest weight.

    Weyl's product over i < j of (l_i - l_j + j - i) / (j - i) on the
    parts l of the highest weight, taken over pairs of runs of equal
    parts, since a pair inside one run contributes 1.  A run ends at
    each nonzero Dynkin label and at row n.  For runs A above B with
    part difference d, the factors of one row of the shorter run against
    the whole longer run are a ratio of falling factorials (math.perm);
    the single division at the end is exact and checked.
    """
    _check_rank(n)
    _check_labels(labels, n)
    runs = _runs(labels, n)
    numerator = 1
    denominator = 1
    for x, (a0, a1, high) in enumerate(runs):
        for b0, b1, low in runs[x + 1 :]:
            d = high - low
            if a1 - a0 <= b1 - b0:
                length = b1 - b0
                for i in range(a0, a1):
                    numerator *= perm(d + b1 - 1 - i, length)
                    denominator *= perm(b1 - 1 - i, length)
            else:
                length = a1 - a0
                for j in range(b0, b1):
                    numerator *= perm(d + j - a0, length)
                    denominator *= perm(j - a0, length)
    return exact_div(numerator, denominator)


def _bounded_partitions(total: int, max_parts: int, largest: int):
    """Weakly decreasing positive tuples summing to total, at most max_parts parts."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _bounded_partitions(total - first, max_parts - 1, first):
            yield (first, *rest)


def _dominates(top: tuple[int, ...], other: tuple[int, ...]) -> bool:
    acc_top = 0
    acc_other = 0
    for a, b in zip(top, other):
        acc_top += a
        acc_other += b
        if acc_other > acc_top:
            return False
    return True


def _dominant_multiplicities(labels: Labels, n: int) -> dict[tuple[int, ...], int]:
    """Multiplicities of the dominant weights, by the Freudenthal recursion.

    Works in the fixed plane of the highest-weight vector, where the
    Euclidean dot product gives the correct exact pairings.  Dominant
    weights of an A-series irrep are exactly the partitions of the same
    total dominated by the highest weight; they are processed in
    decreasing lexicographic order so every weight higher up an
    alpha-string is already known.
    """
    top = _partition(labels, n)
    total = sum(top)
    dominants = sorted(
        (
            mu + (0,) * (n + 1 - len(mu))
            for mu in _bounded_partitions(total, n + 1, top[0] if top[0] else 0)
            if _dominates(top, mu + (0,) * (n + 1 - len(mu)))
        ),
        reverse=True,
    )
    rho = _rho(n)
    top_norm = sum((t + r) ** 2 for t, r in zip(top, rho))
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    mult: dict[tuple[int, ...], int] = {top: 1}
    for mu in dominants:
        if mu == top:
            continue
        acc = 0
        for i, j in pairs:
            t = 1
            while True:
                v = list(mu)
                v[i] += t
                v[j] -= t
                m = mult.get(tuple(sorted(v, reverse=True)), 0)
                if m == 0:
                    break  # alpha-strings are unbroken: nothing further up
                acc += m * (v[i] - v[j])
                t += 1
        denom = top_norm - sum((x + r) ** 2 for x, r in zip(mu, rho))
        mult[mu] = exact_div(2 * acc, denom)
    return mult


def freudenthal_weights(labels: Labels, n: int) -> dict[Weight, int]:
    """Full weight system with multiplicities, keyed by normalized weights.

    The multiplicity of a weight is Weyl-invariant, so each dominant
    multiplicity is spread over the coordinate permutations of its
    weight.
    """
    _check_rank(n)
    _check_labels(labels, n)
    system: dict[Weight, int] = {}
    for part, mult in _dominant_multiplicities(labels, n).items():
        for perm in set(permutations(part)):
            system[_normalize_weight(perm)] = mult
    return system


def adjoint_weight_system(n: int) -> dict[Weight, int]:
    """The (n+1)n root weights with multiplicity 1 plus the zero weight with multiplicity n.

    The root e_i - e_j, normalized, is 2 at i, 0 at j and 1 elsewhere.
    """
    _check_rank(n)
    system = {(0,) * (n + 1): n}
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j:
                root = [1] * (n + 1)
                root[i] = 2
                root[j] = 0
                system[tuple(root)] = 1
    return system


def tensor_with_adjoint(state: dict[Labels, int], n: int) -> dict[Labels, int]:
    """One tensor step: decompose (state) x adjoint into irreducibles.

    Factored through V x V* = adjoint + trivial, V the defining rep.
    Pieri for V adds a box to every row i where the result is dominant
    (i = 0 or a_{i-1} > 0); the intermediate labels are merged, then
    Pieri for V* removes a box from every row j where the result is
    dominant (j = n or a_j > 0).  Subtracting the input state once
    removes the trivial summand; a multiplicity that would go negative
    raises instead of being clamped.  No weight is reflected.
    """
    _check_rank(n)
    for labels, mult in state.items():
        _check_labels(labels, n)
        if mult <= 0:
            raise ValueError(f"multiplicities must be positive, got {mult} for {labels}")
    rows = range(n)
    gained: dict[Labels, int] = {}
    for labels, mult in state.items():
        # Row 0 gains a box, and row p + 1 does below each nonzero a_p.
        # Every key is copied from one list per input label, which each
        # box move changes and then restores.
        work = list(labels)
        work[0] += 1
        key = tuple(work)
        gained[key] = gained.get(key, 0) + mult
        work[0] -= 1
        for p in compress(rows, labels):
            work[p] -= 1
            if p + 1 < n:
                work[p + 1] += 1
                key = tuple(work)
                work[p + 1] -= 1
            else:
                key = tuple(work)
            work[p] += 1
            gained[key] = gained.get(key, 0) + mult
    out: dict[Labels, int] = {}
    for labels, mult in gained.items():
        # Row n loses a box, and row p does at each nonzero a_p.
        work = list(labels)
        work[-1] += 1
        key = tuple(work)
        out[key] = out.get(key, 0) + mult
        work[-1] -= 1
        for p in compress(rows, labels):
            work[p] -= 1
            if p:
                work[p - 1] += 1
                key = tuple(work)
                work[p - 1] -= 1
            else:
                key = tuple(work)
            work[p] += 1
            out[key] = out.get(key, 0) + mult
    for labels, mult in state.items():
        left = out.get(labels, 0) - mult
        if left < 0:
            raise ArithmeticError(f"{labels} occurs fewer than {mult} times in V x V* x state")
        if left:
            out[labels] = left
        else:
            del out[labels]
    return out


def adjoint_power(k: int, n: int) -> dict[Labels, int]:
    """Decomposition of the k-th adjoint tensor power, from the trivial rep up."""
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
    is made.  An immutable named tuple ``(left, right)``: it compares,
    hashes and sorts as that plain tuple, so
    ``StableLabel((1,), (1,)) == ((1,), (1,))``.
    """

    __slots__ = ()

    def __new__(cls, left: tuple[int, ...], right: tuple[int, ...]) -> StableLabel:
        for side in (left, right):
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
    if any(vec[i] < vec[i + 1] for i in range(n)):
        raise ValueError(f"rank {n} too small for {label}")
    return _labels_of(vec)


def dynkin_to_stable(labels: Labels, n: int) -> StableLabel:
    """Split a dominant weight into its stable partition pair.

    Centers the weight vector so positive and negative parts balance;
    the centering shift must be integral, which holds exactly for the
    weights occurring in adjoint tensor powers.  Works on the runs of
    equal parts: each run above the shift adds its length in left parts,
    each run below it its length in right parts.
    """
    _check_rank(n)
    _check_labels(labels, n)
    runs = _runs(labels, n)
    shift, remainder = divmod(sum((end - start) * part for start, end, part in runs), n + 1)
    if remainder:
        raise ValueError(f"{labels} is not a weight of an adjoint tensor power")
    left = chain.from_iterable(
        repeat(part - shift, end - start) for start, end, part in runs if part > shift
    )
    right = chain.from_iterable(
        repeat(shift - part, end - start) for start, end, part in reversed(runs) if part < shift
    )
    return StableLabel(tuple(left), tuple(right))


def _check_stable_range(k_max: int, n: int) -> None:
    """Refuse a power and rank outside the stable range 2*k_max <= n+1."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    _check_rank(n)
    if 2 * k_max > n + 1:
        raise ValueError(f"stable range requires 2*k_max <= n+1, got ({k_max}, {n})")


class PowerCheck(
    namedtuple(
        "PowerCheck",
        "power dimension_expected dimension_observed trivial_expected trivial_observed"
        " leading_ok negative_entries residual",
    )
):
    """Verification record for one tensor power; :attr:`passed` is the
    one definition of a valid power, for both oracle entry points.

    An immutable named tuple.  ``negative_entries`` maps a stable label
    to its negative multiplicity and ``residual`` a stable label to its
    (expected, observed) pair; each defaults to a new empty dict.
    """

    __slots__ = ()

    def __new__(
        cls,
        power: int,
        dimension_expected: int,
        dimension_observed: int,
        trivial_expected: int,
        trivial_observed: int,
        leading_ok: bool,
        negative_entries: dict[StableLabel, int] | None = None,
        residual: dict[StableLabel, tuple[int, int]] | None = None,
    ) -> PowerCheck:
        if negative_entries is None:
            negative_entries = {}
        if residual is None:
            residual = {}
        return tuple.__new__(cls, (
            power, dimension_expected, dimension_observed, trivial_expected,
            trivial_observed, leading_ok, negative_entries, residual,
        ))

    @property
    def passed(self) -> bool:
        return (
            self.dimension_expected == self.dimension_observed
            and self.trivial_expected == self.trivial_observed
            and self.leading_ok
            and not self.negative_entries
            and not self.residual
        )


class VerificationReport(
    namedtuple("VerificationReport", ["k_max", "rank", "passed", "checks", "seconds"])
):
    """Outcome of certifying the coefficient formulas at one rank: the
    immutable named tuple ``(k_max, rank, passed, checks, seconds)``,
    ``checks`` a list of :class:`PowerCheck` and ``seconds`` the wall
    time of the certification."""

    __slots__ = ()

    def to_payload(self) -> dict:
        """JSON-ready form: integers as decimal strings, stable labels as
        pairs of partition arrays.  Timings stay out of the payload so
        output is byte-stable across runs."""
        return {
            "k_max": self.k_max,
            "rank": self.rank,
            "passed": self.passed,
            "checks": [
                {
                    "k": c.power,
                    "dimension_expected": str(c.dimension_expected),
                    "dimension_observed": str(c.dimension_observed),
                    "trivial_expected": str(c.trivial_expected),
                    "trivial_observed": str(c.trivial_observed),
                    "leading_ok": c.leading_ok,
                    "negative_entries": [
                        {"label": _label_payload(lab), "multiplicity": str(m)}
                        for lab, m in sorted(c.negative_entries.items())
                    ],
                    "residual": [
                        {
                            "label": _label_payload(lab),
                            "expected": str(exp),
                            "observed": str(obs),
                        }
                        for lab, (exp, obs) in sorted(c.residual.items())
                    ],
                }
                for c in self.checks
            ],
        }


def _label_payload(label: StableLabel) -> list[list[int]]:
    return [list(label.left), list(label.right)]


def _certified_powers(k_max: int, n: int):
    """Yield, for k = 0..k_max, the check of power k and block k.

    Block k is the stable form of the k-th power left after subtracting
    every earlier block weighted by its coefficient, so the weighted
    block sum equals the power by construction; a miscounted coefficient
    leaves labels without k boxes per side in block k, recorded as a
    residual (expected 0, observed m).  The stable range is checked
    before the first power.
    """
    _check_stable_range(k_max, n)
    adjoint_dim = (n + 1) ** 2 - 1
    power = {trivial_labels(n): 1}
    blocks: list[dict[StableLabel, int]] = []
    # Stable label and dimension per Dynkin label, each computed once
    # per dual pair: every label of power k - 1 recurs in power k for
    # k >= 2, and the dual of labels a, a[::-1], has the same dimension
    # and the swapped stable pair.  Every power is self-dual, so the
    # 3,583 distinct labels at (10, 19) cost 1,861 measurements (139 of
    # them self-dual).
    measured: dict[Labels, tuple[StableLabel, int]] = {}
    for k in range(k_max + 1):
        if k:
            power = tensor_with_adjoint(power, n)
        stable: dict[StableLabel, int] = {}
        dimension = 0
        for lab, m in power.items():
            if lab not in measured:
                dual = measured.get(lab[::-1])
                if dual is None:
                    measured[lab] = (dynkin_to_stable(lab, n), weyl_dimension(lab, n))
                else:
                    (left, right), dim = dual
                    measured[lab] = (StableLabel(right, left), dim)
            label, dim = measured[lab]
            stable[label] = m
            dimension += m * dim
        block = dict(stable)
        for p in range(k):
            c = coefficient(k, p)
            for lab, m in blocks[p].items():
                block[lab] = block.get(lab, 0) - c * m
        block = {lab: m for lab, m in block.items() if m}
        blocks.append(block)
        check = PowerCheck(
            power=k,
            dimension_expected=adjoint_dim**k,
            dimension_observed=dimension,
            trivial_expected=derangement(k),
            trivial_observed=stable.get(StableLabel((), ()), 0),
            leading_ok=block.get(leading_block_label(k), 0) == 1,
            negative_entries={lab: m for lab, m in block.items() if m < 0},
            residual={lab: (0, m) for lab, m in block.items() if sum(lab.left) != k},
        )
        yield check, block


def extract_stable_blocks(k_max: int, n: int) -> list[dict[StableLabel, int]]:
    """Blocks 0..k_max as stable-label multisets, extracted triangularly.

    Block k is the k-th power minus all earlier blocks weighted by their
    coefficients.  A power that fails any of the five properties
    certified by :func:`verify_stable_decomposition` falsifies the
    decomposition at this rank and raises :class:`BlockExtractionError`.
    """
    blocks: list[dict[StableLabel, int]] = []
    for check, block in _certified_powers(k_max, n):
        if not check.passed:
            raise BlockExtractionError(
                f"power {check.power} at rank {n} falsifies the decomposition: {check}"
            )
        blocks.append(block)
    return blocks


def verify_stable_decomposition(k_max: int, n: int) -> VerificationReport:
    """Certify the decomposition for every power up to k_max at rank n.

    Per power: (a) total dimension balances against ((n+1)^2 - 1)^k,
    (b) the trivial rep appears exactly d_k times, (c) block k holds its
    leading label with multiplicity 1, (d) block k has no negative
    multiplicity, (e) every label in block k has exactly k boxes per
    side.  Failures are data in the report, not exceptions; a power
    passes when :attr:`PowerCheck.passed` holds.
    """
    started = time.perf_counter()
    checks = [check for check, _block in _certified_powers(k_max, n)]
    return VerificationReport(
        k_max=k_max,
        rank=n,
        passed=all(c.passed for c in checks),
        checks=checks,
        seconds=time.perf_counter() - started,
    )
