"""Exact decomposition of adjoint tensor powers of the A-series.

Computes the integer coefficients of the rank-stable decomposition of
the k-th tensor power of the adjoint representation of A_n (valid for
2k <= n+1) from Euler's difference table, and certifies them with an
independent Lie-theoretic tensor-decomposition oracle.  Exports the
public names of ``combinatorics``, ``coefficients`` and ``lie``, as each
module's ``__all__`` lists them.
"""

from . import coefficients, combinatorics, lie
from .coefficients import *
from .combinatorics import *
from .lie import *

__version__ = "0.1.0"

__all__ = sorted(combinatorics.__all__ + coefficients.__all__ + lie.__all__)
