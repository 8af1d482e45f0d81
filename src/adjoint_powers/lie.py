"""Exact representation-theoretic oracle for A-series adjoint tensor powers.

Independently certifies the coefficient formulas: the k-th tensor power
of the adjoint representation of A_n is decomposed exactly (integer
arithmetic throughout), the rank-stable blocks are extracted from it
triangularly, and the result is compared block by block against the
combinatorial coefficients, in the stable range 2k <= n+1.

Weights are handled in (n+1)-entry integer coordinates defined up to a
uniform shift; the canonical representative has minimum entry zero, so
equality is plain tuple comparison.  Tensor steps always multiply by
the adjoint and follow the box-move rule: V(lam) x adjoint is the sum
of V(lam + e_i - e_j) over the dominant results, one box moved from row
j to row i, plus V(lam) once per nonzero Dynkin label, so no weight is
reflected to the dominant chamber.  The adjoint weight system is closed
form (the (n+1)n root vectors plus the zero weight with multiplicity
n); it and the Freudenthal recursion are kept as independent
cross-checks, not as part of the product path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import permutations

from .coefficients import coefficient
from .combinatorics import derangement, exact_div

__all__ = [
    "BlockExtractionError",
    "NegativeMultiplicityError",
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
    "normalize_weight",
    "stable_to_dynkin",
    "tensor_with_adjoint",
    "trivial_labels",
    "verify_stable_decomposition",
    "weyl_dimension",
]

Labels = tuple[int, ...]
Weight = tuple[int, ...]


class NegativeMultiplicityError(ArithmeticError):
    """A signed accumulation finished negative: a reflection/sign bug.

    No production path raises it: the signed-reflection tensor step that
    the tests keep as a cross-check of the box-move step does.
    """


class BlockExtractionError(ArithmeticError):
    """Block extraction falsified the decomposition at this rank."""


def _check_rank(n: int) -> None:
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")


def _check_labels(labels: Labels, n: int) -> None:
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
    if any(a < 0 for a in labels):
        raise ValueError(f"labels must be nonnegative, got {labels}")


def trivial_labels(n: int) -> Labels:
    _check_rank(n)
    return (0,) * n


def adjoint_labels(n: int) -> Labels:
    _check_rank(n)
    if n == 1:
        return (2,)
    return (1,) + (0,) * (n - 2) + (1,)


def normalize_weight(coords) -> Weight:
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


def weyl_dimension(labels: Labels, n: int) -> int:
    """Dimension of the irreducible with the given highest weight.

    Product over i < j of (l_i - l_j) / (j - i) on the rho-shifted parts;
    the division is exact and checked.  A pair of equal parts contributes
    (j - i) / (j - i) = 1 and is skipped.
    """
    _check_rank(n)
    _check_labels(labels, n)
    parts = _partition(labels, n)
    numerator = 1
    denominator = 1
    first_lower = n + 1  # first index whose part is below parts[i]
    for i in range(n - 1, -1, -1):
        if labels[i]:
            first_lower = i + 1
        for j in range(first_lower, n + 1):
            numerator *= parts[i] - parts[j] + j - i
            denominator *= j - i
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
            system[normalize_weight(perm)] = mult
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

    Box-move rule: V(lam) x adjoint is the sum of V(lam + e_i - e_j) over
    rows i != j for which the result is dominant (row i gains a box, row
    j loses one), plus V(lam) once per nonzero Dynkin label of lam.  In
    Dynkin labels, row i can gain a box only if i = 0 or a_{i-1} > 0, and
    row j can lose one only if j = n or a_j > 0; only those rows are
    enumerated, so no weight is reflected and nothing cancels.
    """
    _check_rank(n)
    out: dict[Labels, int] = {}
    for labels, mult in state.items():
        _check_labels(labels, n)
        if mult <= 0:
            raise ValueError(f"multiplicities must be positive, got {mult} for {labels}")
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


def adjoint_power(k: int, n: int) -> dict[Labels, int]:
    """Decomposition of the k-th adjoint tensor power, from the trivial rep up."""
    if k < 0:
        raise ValueError("power must be >= 0")
    state = {trivial_labels(n): 1}
    for _ in range(k):
        state = tensor_with_adjoint(state, n)
    return state


@dataclass(frozen=True, order=True)
class StableLabel:
    """Rank-free name for a stable-range irrep: a pair of partitions.

    Tracelessness forces equal box counts on the two sides; ((p,), (p,))
    names the leading irrep of block p.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        for side in (self.left, self.right):
            if any(a <= 0 for a in side) or any(
                side[i] < side[i + 1] for i in range(len(side) - 1)
            ):
                raise ValueError(f"not a partition: {side}")
        if sum(self.left) != sum(self.right):
            raise ValueError(
                f"sides must have equal box counts: {self.left} vs {self.right}"
            )


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
    weights occurring in adjoint tensor powers.
    """
    _check_rank(n)
    _check_labels(labels, n)
    parts = _partition(labels, n)
    shift, remainder = divmod(sum(parts), n + 1)
    if remainder:
        raise ValueError(f"{labels} is not a weight of an adjoint tensor power")
    centered = [p - shift for p in parts]
    left = tuple(p for p in centered if p > 0)
    right = tuple(-p for p in reversed(centered) if p < 0)
    return StableLabel(left, right)


def _check_stable_range(k_max: int, n: int) -> None:
    """Refuse a power and rank outside the stable range 2*k_max <= n+1."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    _check_rank(n)
    if 2 * k_max > n + 1:
        raise ValueError(f"stable range requires 2*k_max <= n+1, got ({k_max}, {n})")


def _extraction_steps(k_max: int, n: int):
    """Yield, for k = 0..k_max, the power decomposition, its stable form, and
    blocks 0..k, where block k is the stable form left after subtracting
    every earlier block weighted by its coefficient."""
    power = {trivial_labels(n): 1}
    blocks: list[dict[StableLabel, int]] = []
    for k in range(k_max + 1):
        if k:
            power = tensor_with_adjoint(power, n)
        stable = {dynkin_to_stable(lab, n): m for lab, m in power.items()}
        block = dict(stable)
        for p in range(k):
            c = coefficient(k, p)
            for lab, m in blocks[p].items():
                block[lab] = block.get(lab, 0) - c * m
        blocks.append({lab: m for lab, m in block.items() if m})
        yield k, power, stable, blocks


def _misplaced_labels(block: dict[StableLabel, int], k: int) -> dict[StableLabel, int]:
    """Entries of block k whose label lacks k boxes per side: an earlier
    block's labels, left over or oversubtracted by a miscounted coefficient."""
    return {lab: m for lab, m in block.items() if sum(lab.left) != k}


def extract_stable_blocks(k_max: int, n: int) -> list[dict[StableLabel, int]]:
    """Blocks 0..k_max as stable-label multisets, extracted triangularly.

    Block k is the k-th power minus all earlier blocks weighted by their
    coefficients.  A negative multiplicity, a label without exactly k
    boxes per side, or a leading label missing or off unit multiplicity
    falsifies the decomposition at this rank and raises
    :class:`BlockExtractionError`.
    """
    _check_stable_range(k_max, n)
    result: list[dict[StableLabel, int]] = []
    for k, _power, _stable, blocks in _extraction_steps(k_max, n):
        block = blocks[k]
        negatives = {lab: m for lab, m in block.items() if m < 0}
        if negatives:
            raise BlockExtractionError(
                f"block {k} at rank {n} has negative multiplicities: {negatives}"
            )
        misplaced = _misplaced_labels(block, k)
        if misplaced:
            raise BlockExtractionError(
                f"block {k} at rank {n} has labels without {k} boxes per side: {misplaced}"
            )
        if block.get(leading_block_label(k), 0) != 1:
            raise BlockExtractionError(
                f"block {k} at rank {n} lacks its leading label with multiplicity 1"
            )
        result.append(block)
    return result


@dataclass
class PowerCheck:
    """Verification record for one tensor power."""

    power: int
    dimension_expected: int
    dimension_observed: int
    trivial_expected: int
    trivial_observed: int
    leading_ok: bool
    negative_entries: dict[StableLabel, int] = field(default_factory=dict)
    residual: dict[StableLabel, tuple[int, int]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (
            self.dimension_expected == self.dimension_observed
            and self.trivial_expected == self.trivial_observed
            and self.leading_ok
            and not self.negative_entries
            and not self.residual
        )


@dataclass
class VerificationReport:
    """Outcome of certifying the coefficient formulas at one rank."""

    k_max: int
    rank: int
    passed: bool
    checks: list[PowerCheck]
    seconds: float

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


def verify_stable_decomposition(k_max: int, n: int) -> VerificationReport:
    """Certify the decomposition for every power up to k_max at rank n.

    Per power: (a) every label in block k has exactly k boxes per side,
    any other being a residual (expected 0, observed m), (b) total
    dimension balances against ((n+1)^2 - 1)^k, (c) blocks are
    nonnegative with unit leading label, (d) the trivial rep appears
    exactly d_k times.  Block k is the remainder of the power, so the
    weighted block sum equals the power by construction; a miscounted
    coefficient shows up under (a).  Failures are data in the report,
    not exceptions.
    """
    _check_stable_range(k_max, n)
    adjoint_dim = (n + 1) ** 2 - 1
    started = time.perf_counter()
    checks: list[PowerCheck] = []
    for k, power, stable, blocks in _extraction_steps(k_max, n):
        block = blocks[k]
        checks.append(
            PowerCheck(
                power=k,
                dimension_expected=adjoint_dim**k,
                dimension_observed=sum(
                    m * weyl_dimension(lab, n) for lab, m in power.items()
                ),
                trivial_expected=derangement(k),
                trivial_observed=stable.get(StableLabel((), ()), 0),
                leading_ok=block.get(leading_block_label(k), 0) == 1,
                negative_entries={lab: m for lab, m in block.items() if m < 0},
                residual={lab: (0, m) for lab, m in _misplaced_labels(block, k).items()},
            )
        )
    return VerificationReport(
        k_max=k_max,
        rank=n,
        passed=all(c.passed for c in checks),
        checks=checks,
        seconds=time.perf_counter() - started,
    )
