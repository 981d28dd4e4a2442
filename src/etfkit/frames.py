"""Frame-side core: Welch bound, coherence, tightness, Gram verification,
vector synthesis, Naimark complements, and sign switching.

A set of n unit-norm columns in dimension m is an equiangular tight frame
(ETF) exactly when its n x n Gram matrix G satisfies three clauses:
unit diagonal, one common off-diagonal modulus beta, and G^2 = alpha*G.
`verify_etf_gram` checks those clauses in that order and reports the
measured (m, alpha, beta); everything else here is built on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BetaZero,
    ColumnsNotUnitNorm,
    DiagonalNotUnit,
    NotIdempotentScaled,
    OffDiagonalNotEquimodular,
)
from .linalg import SymMatrix, as_sym, sym_eigen

__all__ = [
    "DEFAULT_TOL",
    "GramSummary",
    "welch_bound",
    "gram",
    "coherence",
    "tightness_defect",
    "verify_etf_gram",
    "synthesize_from_gram",
    "naimark_complement_gram",
    "switch",
    "sign_normalize",
]

DEFAULT_TOL = 1e-8
UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class GramSummary:
    """Metadata of a verified ETF Gram matrix.

    n is the number of vectors, m the rank (ambient dimension), alpha the
    tight-frame constant n/m, and beta the common off-diagonal modulus.
    """

    n: int
    m: int
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.n:
            raise ValueError(f"rank m={self.m} outside 1..n={self.n}")
        if abs(self.alpha - self.n / self.m) > 1e-12:
            raise ValueError(f"alpha={self.alpha} != n/m={self.n / self.m}")
        if abs(self.m * self.alpha - self.n) > 1e-9:
            raise ValueError("trace identity m*alpha = n violated")
        if self.beta < 0:
            raise ValueError(f"beta={self.beta} negative")
        if self.beta == 0.0 and self.m != self.n:
            raise ValueError("beta = 0 is only possible for an orthonormal basis")


def welch_bound(m: int, n: int) -> float:
    """Coherence lower bound for n unit vectors in dimension m.

    Returns sqrt((n - m) / (m * (n - 1))), or 0 when m == n.
    """
    if m < 1 or n < m:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if m == n:
        return 0.0
    return math.sqrt((n - m) / (m * (n - 1)))


def gram(phi) -> SymMatrix:
    """Gram matrix of the columns of a synthesis matrix (exactly symmetric)."""
    p = _as_frame(phi)
    return SymMatrix.symmetrized(p.T @ p, atol=1e-9)


def coherence(phi) -> float:
    """Largest |<phi_i, phi_j>| over distinct unit-norm columns."""
    p = _as_frame(phi)
    _check_unit_columns(p)
    g = p.T @ p
    np.fill_diagonal(g, 0.0)
    return float(np.max(np.abs(g)))


def tightness_defect(phi) -> float:
    """Frobenius norm of Phi Phi^T - (n/m) I; zero exactly for tight frames."""
    p = _as_frame(phi)
    _check_unit_columns(p)
    m, n = p.shape
    d = p @ p.T - (n / m) * np.eye(m)
    return math.sqrt(float(np.sum(d * d)))


def verify_etf_gram(g, tol: float = DEFAULT_TOL) -> GramSummary:
    """Check the three ETF Gram clauses and return the measured summary.

    Raises DiagonalNotUnit, OffDiagonalNotEquimodular, or
    NotIdempotentScaled, naming the first violated clause in that order;
    a NaN or infinite entry fails the first clause it reaches. beta is
    estimated as the mean off-diagonal modulus. No eigendecomposition is
    needed: an ETF Gram has tr G = n and ||G||_F^2 = tr G^2 = n*alpha, so
    the rank is m = n^2 / ||G||_F^2 rounded (clamped to 1..n), alpha = n/m,
    and the residual clause max |G^2 - alpha G| <= tol decides.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    a = as_sym(g).data
    n = a.shape[0]

    # Each clause is written `not (x <= tol)` so that a NaN fails it.
    diag = np.diag(a)
    worst = int(np.argmax(np.abs(diag - 1.0)))
    if not abs(diag[worst] - 1.0) <= tol:
        raise DiagonalNotUnit(f"G({worst},{worst}) = {diag[worst]!r} != 1")

    if n == 1:
        beta = 0.0
    else:
        off_mask = ~np.eye(n, dtype=bool)
        mods = np.abs(a[off_mask])
        beta = float(np.mean(mods))
        with np.errstate(invalid="ignore"):  # inf - inf: NaN fails below
            dev = np.abs(mods - beta)
        if not np.max(dev) <= tol:
            flat = int(np.argmax(dev))
            i, j = np.argwhere(off_mask)[flat]
            raise OffDiagonalNotEquimodular(
                f"|G({i},{j})| = {abs(a[i, j])!r} vs common modulus {beta!r}"
            )

    m = min(n, max(1, round(n * n / float(np.sum(a * a)))))
    alpha = n / m
    resid = float(np.max(np.abs(a @ a - alpha * a)))
    if not resid <= tol:
        raise NotIdempotentScaled(
            f"max |G^2 - {alpha!r} G| = {resid:.3e} exceeds tol {tol:.3e}"
        )
    return GramSummary(n=n, m=m, alpha=alpha, beta=beta)


def synthesize_from_gram(g, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Recover an m x n synthesis matrix whose Gram reproduces g.

    Scales the eigenvectors of the top eigenspace: with U1 holding the m
    leading eigenvectors, Phi = sqrt(alpha) * U1^T. Verification failures
    propagate unchanged.
    """
    sg = as_sym(g)
    summary = verify_etf_gram(sg, tol)
    u1 = sym_eigen(sg).vectors[:, : summary.m]
    return math.sqrt(summary.alpha) * u1.T


def naimark_complement_gram(g, summary: GramSummary) -> SymMatrix:
    """Gram matrix of the complementary (n-m) x n ETF: (n I - m G)/(n - m).

    The two Grams average back to the identity: (m/n) G + ((n-m)/n) Gt = I.
    """
    if summary.m == summary.n:
        raise BetaZero("m == n: an orthonormal basis has no complement")
    sg = as_sym(g)
    n, m = summary.n, summary.m
    comp = (n * np.eye(n) - m * sg.data) / (n - m)
    return SymMatrix(comp)


def switch(phi, signs) -> np.ndarray:
    """Negate the columns selected by a -1 in the sign pattern."""
    p = _as_frame(phi)
    s = _as_signs(signs)
    if s.shape[0] != p.shape[1]:
        raise ValueError(
            f"sign pattern length {s.shape[0]} != column count {p.shape[1]}"
        )
    return p * s[np.newaxis, :]


def sign_normalize(g, summary: GramSummary) -> tuple[SymMatrix, np.ndarray]:
    """Switch so every inner product with the first vector is +beta.

    Returns (D G D, s) where D = diag(s), s[0] = +1 and s[i] follows the
    sign of G(0, i). Applying it twice equals applying it once.
    """
    if summary.beta == 0.0:
        raise BetaZero("beta = 0: sign normalization undefined")
    sg = as_sym(g)
    s = np.ones(sg.size, dtype=np.int64)
    s[1:] = np.where(sg.data[0, 1:] >= 0.0, 1, -1)
    normalized = SymMatrix(sg.data * np.outer(s, s))
    return normalized, s


def _as_frame(phi) -> np.ndarray:
    p = np.asarray(phi, dtype=float)
    if p.ndim != 2:
        raise ValueError(f"expected a 2-d synthesis matrix, got ndim={p.ndim}")
    return p


def _as_signs(signs) -> np.ndarray:
    s = np.asarray(signs)
    if s.ndim != 1 or not np.isin(s, (-1, 1)).all():
        raise ValueError("sign pattern must be a 1-d array of +1/-1")
    return s.astype(np.int64)


def _check_unit_columns(p: np.ndarray) -> None:
    norms = np.sqrt(np.sum(p * p, axis=0))
    worst = int(np.argmax(np.abs(norms - 1.0)))
    if abs(norms[worst] - 1.0) > UNIT_NORM_TOL:
        raise ColumnsNotUnitNorm(
            f"column {worst} has norm {norms[worst]!r}, expected 1"
        )
