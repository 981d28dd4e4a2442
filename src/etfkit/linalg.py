"""Dense symmetric-matrix kernel: storage, eigendecomposition, norms.

Frame verification, synthesis and conversions take their matrices as
``SymMatrix``. The eigendecomposition is LAPACK's symmetric solver through
``numpy.linalg.eigh``, reordered to descending eigenvalues; frame synthesis
is its only caller inside the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SymMatrix", "EigenPair", "sym_eigen", "frobenius_distance"]


class SymMatrix:
    """Square real matrix with entries(i, j) == entries(j, i) exactly.

    The constructor rejects anything that is not symmetric, a NaN matching
    any NaN; use :meth:`symmetrized` for arrays that are symmetric only up
    to rounding (matrix products, for instance). The stored array is
    read-only.
    """

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        a = np.array(data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix size must be >= 1")
        if not np.array_equal(a, a.T, equal_nan=True):
            raise ValueError(
                "matrix is not exactly symmetric; use SymMatrix.symmetrized"
            )
        a.setflags(write=False)
        self.data = a

    @classmethod
    def symmetrized(cls, data, atol: float = 1e-9) -> "SymMatrix":
        """Build from a nearly symmetric array by averaging with its transpose.

        a/2 + a.T/2 is exactly symmetric in floating point, so the result
        always satisfies the constructor's invariant. Halving first keeps
        finite entries finite, and outside the subnormal range it gives the
        same bits as (a + a.T)/2.
        """
        a = np.asarray(data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        # inf - inf is NaN, left to verification; 1e308 - -1e308 is inf, rejected
        with np.errstate(invalid="ignore", over="ignore"):
            skew = float(np.max(np.abs(a - a.T)))
        if skew > atol:
            raise ValueError(f"asymmetry {skew:.3e} exceeds atol {atol:.3e}")
        half = 0.5 * a
        return cls(half + half.T)

    @property
    def size(self) -> int:
        return self.data.shape[0]

    def __getitem__(self, index):
        return self.data[index]

    def __repr__(self) -> str:
        return f"SymMatrix(size={self.size})"


def as_sym(matrix) -> SymMatrix:
    """Coerce a SymMatrix or exactly symmetric array to SymMatrix."""
    if isinstance(matrix, SymMatrix):
        return matrix
    return SymMatrix(matrix)


@dataclass(frozen=True)
class EigenPair:
    """Spectral decomposition: eigenvalues descending, eigenvectors as the
    columns of an orthogonal matrix aligned with them."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eigen(matrix) -> EigenPair:
    """Full spectral decomposition of a symmetric matrix (LAPACK ``syevd``).

    Eigenvalues are returned in descending order; the eigenvector columns
    are orthonormal to machine precision.
    """
    values, vectors = np.linalg.eigh(as_sym(matrix).data)
    return EigenPair(values=values[::-1], vectors=vectors[:, ::-1])


def frobenius_distance(a, b) -> float:
    """Frobenius norm of the difference of two symmetric matrices."""
    sa, sb = as_sym(a), as_sym(b)
    if sa.size != sb.size:
        raise ValueError(f"size mismatch: {sa.size} vs {sb.size}")
    d = sa.data - sb.data
    return math.sqrt(float(np.sum(d * d)))
