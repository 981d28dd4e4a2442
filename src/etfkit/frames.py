"""Frame-side core: Welch bound, coherence, tightness, Gram verification,
vector synthesis, Naimark complements, and sign switching.

A set of n unit-norm columns in dimension m is an equiangular tight frame
(ETF) exactly when its n x n Gram matrix G satisfies three clauses:
unit diagonal, one common off-diagonal modulus beta, and G^2 = alpha*G,
the last decided exactly on the sign pattern (Seidel's identity).
`verify_etf_gram` checks those clauses in that order and reports the
measured (m, alpha, beta); everything else here is built on top of it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BetaZero,
    ColumnsNotUnitNorm,
    DiagonalNotUnit,
    NotIdempotentScaled,
    OffDiagonalNotEquimodular,
)
from .linalg import DEFAULT_TOL, SymMatrix, _check_tol, as_sym, sym_eigen

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
        if self.alpha != self.n / self.m:
            raise ValueError(f"alpha={self.alpha} != n/m={self.n / self.m}")
        if self.beta < 0:
            raise ValueError(f"beta={self.beta} negative")
        if self.beta == 0.0 and self.m != self.n:
            raise ValueError("beta = 0 is only possible for an orthonormal basis")


def welch_bound(m: int, n: int) -> float:
    """Coherence lower bound for n unit vectors in dimension m.

    Returns sqrt((n - m) / (m * (n - 1))) correctly rounded, or 0 when
    m == n. With a = n - m and b = m(n - 1), r = isqrt(a 4^s // b) has at
    least 55 bits and its low bit set when the division or the root is
    inexact (round-to-odd), so r / 2^s, which int / int rounds once,
    subnormals included, is the rounded root. A bound of m < n too small
    for a float, which would read 0, raises ValueError.
    """
    m, n = operator.index(m), operator.index(n)
    if m < 1 or n < m:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if m == n:
        return 0.0
    a, b = n - m, m * (n - 1)
    s = (b.bit_length() - a.bit_length() + 112) // 2  # a 4^s / b >= 2^110
    q, rem = divmod(a << 2 * s, b)
    r = math.isqrt(q)
    beta = (r | (rem != 0 or r * r != q)) / (1 << s)
    if beta == 0.0:
        raise ValueError(
            f"beta = sqrt((n-m)/(m*(n-1))) underflows to 0 for shape {_shape_text(m, n)}"
        )
    return beta


def _shape_text(m: int, n: int) -> str:
    """The shape as "(m,n)", or as "(m,m+(n-m))" when n passes Python's digit
    limit on int-to-str conversion: the CLI's integer inputs are held to that
    limit, but n = v + 1 can pass it. A library caller's m or n - m can pass
    it too, and then prints as its bit length, "<b-bit int>"."""
    try:
        return f"({m},{n})"
    except ValueError:
        m_text = _int_text(m)
        return f"({m_text},{m_text}+{_int_text(n - m)})"


def _int_text(x: int) -> str:
    try:
        return str(x)
    except ValueError:  # the digit limit
        return f"<{x.bit_length()}-bit int>"


def gram(phi) -> SymMatrix:
    """Gram matrix of the columns of a synthesis matrix (exactly symmetric);
    a non-finite or overflowing entry is left to verification, unwarned."""
    p = _as_frame(phi)
    with np.errstate(invalid="ignore", over="ignore"):
        half = 0.5 * (p.T @ p)
        return SymMatrix._valid(half + half.T)


def coherence(phi) -> float:
    """Largest |<phi_i, phi_j>| over distinct unit columns (`_check_unit_columns`)."""
    p = _as_frame(phi)
    with np.errstate(invalid="ignore", over="ignore"):  # left to the unit clause
        g = p.T @ p
    _check_unit_columns(p, g.diagonal())
    np.fill_diagonal(g, 0.0)
    return float(np.max(np.abs(g)))


def tightness_defect(phi) -> float:
    """Frobenius norm of Phi Phi^T - (n/m) I over unit columns; zero exactly when tight."""
    p = _as_frame(phi)
    _check_unit_columns(p, np.einsum("ij,ij->j", p, p))  # einsum overflows unwarned
    m, n = p.shape
    d = p @ p.T - (n / m) * np.eye(m)
    return math.sqrt(float(np.sum(d * d)))


def verify_etf_gram(g, tol: float = DEFAULT_TOL) -> GramSummary:
    """Check the three ETF Gram clauses and return the measured summary.

    Raises DiagonalNotUnit, OffDiagonalNotEquimodular, or
    NotIdempotentScaled, naming the first violated clause in that order;
    a NaN or infinite entry fails the first clause it reaches, and the
    off-diagonal clause names such an entry as not finite. beta is the
    common off-diagonal modulus when all are equal, else their mean.

    These two clauses are the one float boundary: past them G = I + beta S
    within tol, S the +-1 sign pattern of the off-diagonal (0 counts as
    +1), and G^2 = alpha G exactly when S^2 = (n-1) I + c S for an integer
    c and beta is the positive root of (n-1) beta^2 - c beta - 1 = 0
    (Seidel). The identity is decided exactly: S^2 is a float32 product of
    integers of magnitude at most n - 1 < 2^24 (a Gram of 2^48 entries
    fits in no memory). It fixes m = `_integral_dimension(n-1, (n-2+c)/2)`
    and alpha = n/m, and the last clause is the root's residual
    max(|1 + (n-1) beta^2 - alpha|, |beta (2 + c beta - alpha)|) <= tol,
    which is max |G^2 - alpha G| for G = I + beta S. When
    beta (1 + (n-1) beta) <= tol, which bounds max |G^2 - G| whatever the
    signs, G is the identity within tol: m = n.
    """
    _check_tol(tol)
    a = as_sym(g).data
    n = a.shape[0]

    # Each clause is written `not (x <= tol)` so that a NaN fails it.
    diag = a.diagonal()
    worst = int(np.argmax(np.abs(diag - 1.0)))
    if not abs(diag[worst] - 1.0) <= tol:
        raise DiagonalNotUnit(f"G({worst},{worst}) = {float(diag[worst])!r} != 1")

    if n == 1:
        beta = 0.0
    else:
        # The off-diagonal in row-major order, as the n - 1 runs of n entries
        # between diagonal entries: entry f is G(divmod(f + f // n + 1, n)).
        mods = np.abs(a.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]).ravel()
        lo, hi = mods.min(), mods.max()
        if not math.isfinite(hi):
            f = int(np.argmin(np.isfinite(mods)))
            i, j = divmod(f + f // n + 1, n)
            raise OffDiagonalNotEquimodular(f"G({i},{j}) = {float(a[i, j])!r} is not finite")
        with np.errstate(over="ignore"):  # np.mean, bit for bit, of unequal moduli
            beta = float(hi if lo == hi else mods.sum() / mods.size)
        if beta == math.inf:  # the moduli are finite, only their sum is not
            beta = float(np.sum(mods / mods.size))
        if not max(hi - beta, beta - lo) <= tol:  # max |mods - beta|, without a pass
            f = int(np.argmax(np.abs(mods - beta)))
            i, j = divmod(f + f // n + 1, n)
            raise OffDiagonalNotEquimodular(
                f"|G({i},{j})| = {float(abs(a[i, j]))!r} vs common modulus {beta!r}"
            )

    # Python floats from here: a product that overflows is inf, not an error.
    if beta * (1.0 + (n - 1) * beta) <= tol:
        return GramSummary(n=n, m=n, alpha=1.0, beta=beta)
    s = np.where(a < 0.0, np.float32(-1.0), np.float32(1.0))
    np.fill_diagonal(s, 0.0)
    p = s @ s.T  # S is symmetric, and numpy squares S S^T with one BLAS syrk
    p *= s  # S^2 o S, which holds c at every off-diagonal entry
    c = p[0, 1]
    np.fill_diagonal(p, c)
    if p.min() != p.max():
        i, j = divmod(int(np.argmax(p != c)), n)  # the first pair, in row-major order
        raise NotIdempotentScaled(
            f"signs fail S^2 = {n - 1} I + c S: S^2({i},{j}) S({i},{j}) = "
            f"{int(p[i, j])}, but S^2(0,1) S(0,1) = {int(c)}"
        )
    c = int(c)
    m = _integral_dimension(n - 1, (n - 2 + c) // 2)
    alpha = n / m
    resid = max(abs(1.0 + (n - 1) * beta * beta - alpha), abs(beta * (2.0 + c * beta - alpha)))
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
    return _synthesize(sg, verify_etf_gram(sg, tol).m)


def _synthesize(g: SymMatrix, m: int) -> np.ndarray:
    """`synthesize_from_gram` for an ETF Gram whose rank m is known."""
    u1 = sym_eigen(g).vectors[:, :m]
    return math.sqrt(g.size / m) * u1.T


def naimark_complement_gram(g, summary: GramSummary) -> SymMatrix:
    """Gram matrix of the complementary (n-m) x n ETF: (n I - m G)/(n - m).

    The two Grams average back to the identity: (m/n) G + ((n-m)/n) Gt = I.
    """
    if summary.m == summary.n:
        raise BetaZero("m == n: an orthonormal basis has no complement")
    sg = as_sym(g)
    n, m = summary.n, summary.m
    comp = (n * np.eye(n) - m * sg.data) / (n - m)
    return SymMatrix._valid(comp)  # entrywise in G, so symmetric as G is


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
    sign of G(0, i). Applying it twice equals applying it once. An
    orthonormal basis (m == n) raises BetaZero.
    """
    if summary.m == summary.n:
        raise BetaZero("m == n: an orthonormal basis has no sign normalization")
    sg = as_sym(g)
    s = np.ones(sg.size, dtype=np.int64)
    s[1:] = np.where(sg.data[0, 1:] >= 0.0, 1, -1)
    normalized = SymMatrix._valid(sg.data * np.outer(s, s))  # s_i s_j G(i,j), symmetric
    return normalized, s


def _integral_dimension(v: int, k: int) -> int | None:
    """The positive-root dimension m of (v, k) when it is an integer, else None.

    With delta = v - 2k - 1, m = (v+1)/2 when delta = 0, an integer exactly
    when v is odd. Otherwise m is rational only when delta^2 + 4v is a
    square r^2, and then m = (v+1)(r + delta)/(2r).
    """
    delta = v - 2 * k - 1
    if delta == 0:
        return (v + 1) // 2 if v % 2 else None
    r = math.isqrt(delta * delta + 4 * v)
    if r * r != delta * delta + 4 * v:
        return None
    m, rem = divmod((v + 1) * (r + delta), 2 * r)
    return None if rem else m


def _as_frame(phi) -> np.ndarray:
    p = np.asarray(phi, dtype=float)
    if p.ndim != 2:
        raise ValueError(f"expected a 2-d synthesis matrix, got ndim={p.ndim}")
    if not p.shape[1]:  # no vectors: its Gram would be a 0 x 0 SymMatrix
        raise ValueError(f"expected a synthesis matrix with columns, got shape {p.shape}")
    return p


def _as_signs(signs) -> np.ndarray:
    s = np.asarray(signs)
    if s.ndim != 1 or not np.isin(s, (-1, 1)).all():
        raise ValueError("sign pattern must be a 1-d array of +1/-1")
    return s.astype(np.int64)


def _check_unit_columns(p: np.ndarray, squared_norms, tol: float = DEFAULT_TOL) -> None:
    """`verify_etf_gram`'s diagonal clause on the squared norms of p's columns,
    its Gram's diagonal: a NaN fails it, and ColumnsNotUnitNorm names the first
    worst column by its `math.hypot` norm, which squares nothing to overflow."""
    worst = int(np.argmax(np.abs(squared_norms - 1.0)))
    if not abs(squared_norms[worst] - 1.0) <= tol:
        norm = math.hypot(*p[:, worst].tolist())
        raise ColumnsNotUnitNorm(f"column {worst} has norm {norm!r}, expected 1")
