"""Every test run draws the same Hypothesis examples: one derandomized
profile, with no example database, is registered and loaded here.  The
strategies, the reference routes and the planted faults more than one
test file uses live here too."""

from itertools import islice
import math

from hypothesis import settings, strategies as st

from adjoint_powers import StableLabel, combinatorics, lie

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@st.composite
def partitions_of(draw, boxes):
    """A partition of ``boxes``, as a tuple of weakly decreasing positive parts."""
    parts = []
    while boxes:
        part = draw(st.integers(1, min(boxes, parts[-1] if parts else boxes)))
        parts.append(part)
        boxes -= part
    return tuple(parts)


def contraction_count(k, p):
    """Block coefficient c_{k,p} by counting contraction patterns: C(k, p)
    times d_k^p by its sum formula, the private body
    ``combinatorics._closed_form``."""
    derangements = list(islice(combinatorics.derangement_numbers(), k + 1))
    binomials = combinatorics._binomial_row(p)
    return math.comb(k, p) * combinatorics._closed_form(k, binomials, derangements)


def plant_miscounted_coefficient(monkeypatch, error):
    """Patch the oracle's coefficient rows so that c(4, 2) is off by ``error``."""
    true_row = lie.coefficient_row

    def miscounted_row(k):
        row = true_row(k)
        if k != 4:
            return row
        return row._replace(values=(*row.values[:2], row.values[2] + error, *row.values[3:]))

    monkeypatch.setattr(lie, "coefficient_row", miscounted_row)


def plant_dropped_label(monkeypatch, label, n):
    """Patch the oracle's tensor step so that, at rank ``n``, no power holds ``label``."""
    step = lie.tensor_with_adjoint
    dropped = bytes(lie.stable_to_dynkin(label, n))

    def planted(state, n):
        out = step(state, n)
        out.pop(dropped, None)
        return out

    monkeypatch.setattr(lie, "tensor_with_adjoint", planted)


# The dual swap: one copy of [(5), (4,1)] moved onto its dual [(4,1), (5)].
SWAPPED = (StableLabel((5,), (4, 1)), StableLabel((4, 1), (5,)))


def plant_dual_swap(monkeypatch):
    """Patch the oracle's tensor step so that, at rank 9, a power that
    holds the first label of ``SWAPPED`` (power 5 is the first) has one
    copy of it moved onto the second.  The move keeps the dimension, the
    trivial count, the leading label and the box counts."""
    step = lie.tensor_with_adjoint
    source, target = (bytes(lie.stable_to_dynkin(label, 9)) for label in SWAPPED)

    def planted(state, n):
        out = step(state, n)
        if source in out:
            out[source] -= 1
            out[target] += 1
        return out

    monkeypatch.setattr(lie, "tensor_with_adjoint", planted)
