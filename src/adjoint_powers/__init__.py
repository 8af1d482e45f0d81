"""Exact decomposition of adjoint tensor powers of the A-series.

Computes the integer coefficients of the rank-stable decomposition of
the k-th tensor power of the adjoint representation of A_n (valid for
2k <= n+1) from Euler's difference table, and certifies them with an
independent Lie-theoretic tensor-decomposition oracle.
"""

from .coefficients import (
    CoefficientRow,
    DecompositionTable,
    coefficient,
    coefficient_by_contraction,
    coefficient_row,
    decomposition_rows,
    decomposition_table,
)
from .combinatorics import (
    ENUMERATION_LIMIT,
    EulerTable,
    ExactDivisionError,
    HigherDerangementTable,
    PowerSeries,
    binomial,
    derangement,
    derangement_enumeration_oracle,
    derangement_numbers,
    egf_coefficients,
    euler_rows,
    euler_table,
    exact_div,
    factorial,
    higher_derangement,
    higher_derangement_rows,
    higher_derangement_table,
)
from .lie import (
    BlockExtractionError,
    PowerCheck,
    StableLabel,
    VerificationReport,
    adjoint_labels,
    adjoint_power,
    adjoint_weight_system,
    dynkin_to_stable,
    extract_stable_blocks,
    freudenthal_weights,
    leading_block_label,
    stable_to_dynkin,
    tensor_with_adjoint,
    trivial_labels,
    verify_stable_decomposition,
    weyl_dimension,
)

__version__ = "0.1.0"

__all__ = [
    "ENUMERATION_LIMIT",
    "BlockExtractionError",
    "CoefficientRow",
    "DecompositionTable",
    "EulerTable",
    "ExactDivisionError",
    "HigherDerangementTable",
    "PowerCheck",
    "PowerSeries",
    "StableLabel",
    "VerificationReport",
    "adjoint_labels",
    "adjoint_power",
    "adjoint_weight_system",
    "binomial",
    "coefficient",
    "coefficient_by_contraction",
    "coefficient_row",
    "decomposition_rows",
    "decomposition_table",
    "derangement",
    "derangement_enumeration_oracle",
    "derangement_numbers",
    "dynkin_to_stable",
    "egf_coefficients",
    "euler_rows",
    "euler_table",
    "exact_div",
    "extract_stable_blocks",
    "factorial",
    "freudenthal_weights",
    "higher_derangement",
    "higher_derangement_rows",
    "higher_derangement_table",
    "leading_block_label",
    "stable_to_dynkin",
    "tensor_with_adjoint",
    "trivial_labels",
    "verify_stable_decomposition",
    "weyl_dimension",
]
