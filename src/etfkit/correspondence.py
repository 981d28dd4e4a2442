"""The frame <-> graph dictionary.

An n-vector real ETF, switched so the first vector has positive inner
product with all others, strips to a strongly regular graph on v = n - 1
vertices with mu = k/2 (the complete graph when m = 1). Conversely, any
such SRG assembles into an ETF Gram matrix, and the frame dimension m is
determined by (v, k) in closed form. Both directions, the parameter
bijection, and the second (negative-root) Gram are implemented here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BetaZero,
    GramVerificationError,
    NonIntegralDegree,
    NonIntegralDimension,
    NotAnEtf,
    NotAnSrg,
    NotEligible,
    OddDegree,
    SrgVerificationError,
)
from .frames import DEFAULT_TOL, GramSummary, _integral_dimension, gram, verify_etf_gram
from .graphs import AdjacencyMatrix, SrgParams, verify_srg
from .linalg import SymMatrix

__all__ = [
    "EtfShape",
    "ConversionReport",
    "etf_params_to_srg_params",
    "srg_params_to_etf_params",
    "is_etf_eligible",
    "etf_to_srg",
    "srg_to_etf_gram",
    "srg_to_etf_gram_minus",
]

@dataclass(frozen=True)
class EtfShape:
    """Frame dimensions: n unit vectors in dimension m, with m < n."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.m < self.n:
            raise ValueError(f"need 1 <= m < n, got m={self.m}, n={self.n}")


@dataclass(frozen=True, eq=False)
class ConversionReport:
    """What a conversion measured: frame shape, graph parameters, the
    off-diagonal value beta (signed; negative for the minus-root Gram),
    the tight-frame constant alpha = n/m, and the switching pattern used."""

    shape: EtfShape
    params: SrgParams
    beta: float
    alpha: float
    signs: np.ndarray

    def __post_init__(self) -> None:
        if self.params.v != self.shape.n - 1:
            raise ValueError(
                f"v={self.params.v} does not match n-1={self.shape.n - 1}"
            )
        if self.alpha != self.shape.n / self.shape.m:
            raise ValueError(f"alpha={self.alpha} != n/m={self.shape.n / self.shape.m}")


def etf_params_to_srg_params(shape: EtfShape) -> SrgParams:
    """Graph parameters implied by frame dimensions (m, n).

    v = n - 1, the degree is
    k = n/2 - 1 + (n/(2m) - 1) sqrt(m(n-1)/(n-m)), mu = k/2, and
    lambda = (3k - v - 1)/2. k must be a nonnegative even integer and
    lambda a nonnegative integer, which is decided exactly, else no real
    ETF of this shape exists and the corresponding error is raised. m = 1,
    n copies of one vector, gives the complete graph, whose mu is vacuous.
    """
    m, n = shape.m, shape.n
    v = n - 1
    k = _integral_degree(m, n)
    if k is None:
        try:
            k_real = 0.5 * n - 1.0 + (n / (2.0 * m) - 1.0) * math.sqrt(m * (n - 1) / (n - m))
        except OverflowError:
            k_real = 0.0
        if k_real.is_integer():  # the float hides the fraction: name it exactly
            # Only m and n are printed: a product of two inputs can pass the
            # digit limit of int-to-str conversion that the inputs are under.
            k_real = f"{n}/2 - 1 + ({n}/(2*{m}) - 1) * sqrt({m}*({n}-1)/({n}-{m}))"
        raise NonIntegralDegree(f"degree {k_real} for shape ({m},{n})")
    lam_twice, mu_twice, eligible = _doubled_lambda_mu(v, k)
    if mu_twice % 2:
        raise OddDegree(f"degree {k} is odd, so mu = k/2 is not integral")
    if not eligible:
        raise NonIntegralDegree(
            f"lambda = {lam_twice}/2 for shape ({m},{n}) is not a "
            "nonnegative integer"
        )
    # The simplex (k = 0) gives the empty graph and m = 1 the complete one.
    return SrgParams(
        v, k, lam_twice // 2, mu_twice // 2, lam_vacuous=k == 0, mu_vacuous=k == v - 1
    )


def _doubled_lambda_mu(v: int, k: int) -> tuple[int, int, bool]:
    """(2 lambda, 2 mu, eligible) of the graph (v, k) with mu = k/2, exactly.

    lambda = (3k - v - 1)/2. An empty graph's lambda and a complete graph's
    mu are vacuous and read 0. The graph is eligible when lambda and mu are
    integers and lambda is nonnegative.
    """
    lam_twice = 3 * k - v - 1 if k else 0
    mu_twice = k if 0 < k < v - 1 else 0
    return lam_twice, mu_twice, lam_twice % 2 == 0 and mu_twice % 2 == 0 and lam_twice >= 0


def srg_params_to_etf_params(v: int, k: int) -> EtfShape:
    """Frame dimensions implied by graph parameters (v, k).

    n = v + 1 and m = (v+1)/2 * (1 + delta/sqrt(delta^2 + 4v)) with
    delta = v - 2k - 1; m must be an integer, which is decided exactly.
    """
    if v < 1:
        raise ValueError(f"v={v} must be positive")
    if not 0 <= k <= v - 1:
        raise ValueError(f"degree k={k} outside 0..v-1={v - 1}")
    m = _integral_dimension(v, k)
    if m is None:
        d = v - 2 * k - 1
        try:
            m_real = 0.5 * (v + 1) * (1.0 + d / math.sqrt(d * d + 4 * v))
        except OverflowError:
            m_real = 0.0
        if m_real.is_integer():  # the float hides the fraction: name it exactly
            # Only v and |d| < v are printed, as in the degree's message.
            m_real = f"({v}+1)/2 * (1 + {d}/sqrt({abs(d)}^2 + 4*{v}))"
        raise NonIntegralDimension(f"dimension {m_real} for (v,k)=({v},{k})")
    return EtfShape(m, v + 1)


def is_etf_eligible(p: SrgParams) -> bool:
    """Whether the graph corresponds to a real ETF: mu = k/2 exactly.

    A vacuous mu imposes no constraint: the complete graph is the graph of
    n copies of one vector (m = 1).
    """
    return p.mu_vacuous or 2 * p.mu == p.k


def etf_to_srg(phi, tol: float = DEFAULT_TOL) -> tuple[AdjacencyMatrix, ConversionReport]:
    """Convert an ETF synthesis matrix to its strongly regular graph.

    Verifies the Gram matrix, switches signs so the first row is +beta and
    strips the first vertex: vectors i, j >= 1 are adjacent exactly when
    their switched inner product is +beta. The graph needs no re-check:
    verification proved the sign pattern satisfies the Seidel identity,
    so the graph is strongly regular with the closed-form parameters.
    """
    g = gram(phi)
    try:
        summary = verify_etf_gram(g, tol)
    except GramVerificationError as exc:
        raise NotAnEtf(str(exc)) from exc
    return _etf_gram_to_srg(g, summary)


def _etf_gram_to_srg(
    g: SymMatrix, summary: GramSummary
) -> tuple[AdjacencyMatrix, ConversionReport]:
    """`etf_to_srg` given the Gram matrix of the frame and its verified summary."""
    if summary.m == summary.n:
        raise BetaZero("m == n: orthonormal bases have no graph counterpart")

    # The switched sign of (i, j) is S(i,j) s(i) s(j) with s = S(0, .),
    # classified as verify_etf_gram classifies S.
    pos = g.data >= 0.0
    adj = pos[1:, 1:] == (pos[0, 1:, np.newaxis] == pos[0, np.newaxis, 1:])
    np.fill_diagonal(adj, False)
    shape = EtfShape(summary.m, summary.n)
    report = ConversionReport(
        shape=shape,
        params=etf_params_to_srg_params(shape),
        beta=summary.beta,
        alpha=summary.alpha,
        signs=np.where(pos[0], 1, -1),
    )
    return AdjacencyMatrix._valid(adj), report


def srg_to_etf_gram(b, tol: float = DEFAULT_TOL) -> tuple[SymMatrix, ConversionReport]:
    """Assemble the ETF Gram matrix of an eligible SRG (positive root).

    beta is the positive root of v beta^2 + (v - 2k - 1) beta - 1 = 0,
    which equals the Welch bound of the resulting (m, v+1) frame. The
    Gram is an ETF Gram by the Seidel identity, so nothing re-verifies it
    and tol is unused.
    """
    return _srg_to_etf(b, +1)


def srg_to_etf_gram_minus(b, tol: float = DEFAULT_TOL) -> tuple[SymMatrix, ConversionReport]:
    """Same as `srg_to_etf_gram` but with the negative root.

    The resulting dimension m' satisfies m + m' = v + 1: this Gram is the
    Naimark complement of the positive-root one. For deviation zero the
    dimension repeats and only the off-diagonal signs flip.
    """
    return _srg_to_etf(b, -1)


def _srg_to_etf(b, root_sign: int) -> tuple[SymMatrix, ConversionReport]:
    adj = b if isinstance(b, AdjacencyMatrix) else AdjacencyMatrix(b)
    try:
        params = verify_srg(adj)
    except SrgVerificationError as exc:
        raise NotAnSrg(str(exc)) from exc
    if not is_etf_eligible(params):
        raise NotEligible(f"mu = {params.mu} != k/2 = {params.k}/2")

    v, k = params.v, params.k
    delta = v - 2 * k - 1
    root = math.sqrt(delta * delta + 4 * v)
    beta = (-delta + root_sign * root) / (2.0 * v)
    n = v + 1
    m = _integral_dimension(v, k)  # an integer for every eligible SRG
    if root_sign < 0:
        m = n - m  # the Naimark complement's dimension

    report = ConversionReport(
        shape=EtfShape(m, n),
        params=params,
        beta=beta,
        alpha=n / m,
        signs=np.ones(n, dtype=np.int64),
    )
    return _assemble_gram(adj, beta), report


def _assemble_gram(b: AdjacencyMatrix, beta: float) -> SymMatrix:
    """[[1, beta 1^T], [beta 1, 2 beta A + (beta + 1) I - beta J]], each
    entry the float that formula gives."""
    g = np.full((b.v + 1, b.v + 1), beta)
    g[1:, 1:] -= 2.0 * beta * (b._entries == 0)  # beta - 2 beta = -beta exactly
    np.fill_diagonal(g, (beta + 1.0) - beta)
    g[0, 0] = 1.0
    return SymMatrix._valid(g)


def _integral_degree(m: int, n: int) -> int | None:
    """The degree k of shape (m, n) when it is a nonnegative integer, else None.

    With n = 2m the square root drops out and k = m - 1. Otherwise reduce
    m(n-1)/(n-m) to a/b in lowest terms; the root is rational only when a
    and b are squares, and then k = n/2 - 1 + (n - 2m)/(2m) * sqrt(a/b).
    """
    if n == 2 * m:
        return m - 1
    g = math.gcd(m * (n - 1), n - m)
    a, b = m * (n - 1) // g, (n - m) // g
    ra, rb = math.isqrt(a), math.isqrt(b)
    if ra * ra != a or rb * rb != b:
        return None
    k, rem = divmod((n - 2) * m * rb + (n - 2 * m) * ra, 2 * m * rb)
    return None if rem or k < 0 else k
