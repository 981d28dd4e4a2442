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

__all__ = ["DEFAULT_TOL", "SymMatrix", "EigenPair", "sym_eigen", "frobenius_distance"]

DEFAULT_TOL = 1e-8


def _check_tol(tol: float) -> float:
    """tol, when it is a finite positive number; else ValueError."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be a finite positive number, got {tol}")
    return tol


class SymMatrix:
    """Square real matrix with entries(i, j) == entries(j, i) exactly.

    The constructor rejects anything that is not symmetric, a NaN matching
    any NaN; use :meth:`symmetrized` for arrays that are symmetric only up
    to rounding (matrix products, for instance). The stored array is
    read-only. The public constructor checks the invariant. etfkit's own
    producers (`symmetrized`, the Gram matrices the conversions assemble,
    Naimark complements and sign-normalized Grams) are symmetric by
    construction and skip the check through `_valid`; a test wraps each
    of their outputs in the public constructor to pin that.
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
    def _valid(cls, data: np.ndarray) -> "SymMatrix":
        """Wrap a square float array already known to be symmetric, unchecked."""
        sym = object.__new__(cls)
        sym.data = data.astype(float, copy=False)
        sym.data.setflags(write=False)
        return sym

    @classmethod
    def symmetrized(cls, data, atol: float = DEFAULT_TOL) -> "SymMatrix":
        """Build from a square array symmetric within `atol`, a NaN matching a
        NaN and an infinity its equal, else ValueError naming the first pair
        i < j apart: the CLI's test of a Gram file. Off the diagonal the
        result is a/2 + a.T/2, exactly symmetric, finite where a is, and
        outside the subnormal range the bits of (a + a.T)/2; the diagonal is
        kept as given, which halving would round in the subnormal range.
        """
        a = np.asarray(data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
            raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
        with np.errstate(invalid="ignore", over="ignore"):  # 1e308 - -1e308 is inf
            apart = ~(np.abs(a - a.T) <= atol)  # a NaN difference too: inf - inf
            apart &= (a != a.T) & ~(np.isnan(a) & np.isnan(a.T))  # NaN matches NaN
            if apart.any():  # never on the diagonal: the first is a pair i < j
                i, j = divmod(int(np.argmax(apart)), a.shape[0])
                skew = abs(float(a[i, j]) - float(a[j, i]))  # a Python float: inf, unwarned
                raise ValueError(
                    f"G is not symmetric: |G({i},{j}) - G({j},{i})| = {skew!r} "
                    f"exceeds tol {atol:.3e}"
                )
            g = a / 2 + a.T / 2  # inf/2 + -inf/2, agreeing at atol = inf, is NaN
        np.fill_diagonal(g, a.diagonal())
        return cls._valid(g)

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
