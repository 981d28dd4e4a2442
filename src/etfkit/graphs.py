"""Graph-side core: adjacency matrices, strong-regularity verification,
parameter arithmetic, spectra, complements, and the deviation.

Strong regularity is a discrete property, so every decision `verify_srg`
makes is exact: A^2(i, j) counts two-step paths, and the counts must be
constant on the diagonal (k), over adjacent pairs (lambda), and over
non-adjacent pairs (mu). The product is taken in float32 through BLAS; it
is exact because every count, every partial sum and every value the test
compares is an integer of magnitude below 2^24 (v <= 2^23 is checked).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDiscriminant,
    NegativeParameter,
    NonIntegralMultiplicity,
    NotRegular,
    NotStronglyRegular,
)

__all__ = [
    "AdjacencyMatrix",
    "SrgParams",
    "SrgSpectrum",
    "verify_srg",
    "check_parameter_relation",
    "spectrum",
    "complement",
    "complement_params",
    "deviation",
]

# float32 holds every integer of magnitude at most 2^24 exactly. verify_srg
# computes integers in [-(v - 1), 2(v - 1)], so it needs v <= 2^23.
_FLOAT32_MAX_V = 2**23


class AdjacencyMatrix:
    """Simple-graph adjacency matrix: symmetric 0/1 with zero diagonal.

    `.data` is a read-only int64 array; equality is exact entrywise
    comparison. The public constructor checks every clause of that
    invariant. etfkit's own producers (the graph-file parsers, `complement`,
    `paley` and the ETF-to-graph conversion) build matrices that satisfy it
    by construction and skip the checks through `_valid`; a test wraps each
    of their outputs in the public constructor to pin that. They build one
    byte per entry (int8 or bool), which is kept as `_entries` and widened
    into `.data` only on its first access; etfkit's own readers of a graph
    read `_entries`, so a command that never touches `.data` never builds
    the int64 copy.
    """

    __slots__ = ("_entries", "_data")

    def __init__(self, data) -> None:
        raw = np.asarray(data)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {raw.shape}")
        if raw.shape[0] < 1:
            raise ValueError("graph must have at least one vertex")
        if not ((raw == 0) | (raw == 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        if np.any(np.diag(raw) != 0):
            raise ValueError("diagonal must be zero (no loops)")
        if not np.array_equal(raw, raw.T):
            raise ValueError("adjacency matrix must be symmetric")
        a = raw.astype(np.int64)
        a.setflags(write=False)
        self._entries = self._data = a

    @classmethod
    def _valid(cls, entries: np.ndarray) -> "AdjacencyMatrix":
        """Wrap a 0/1 array of any integer or bool dtype that is already
        known to be an adjacency matrix, unchecked and uncopied."""
        graph = object.__new__(cls)
        entries.setflags(write=False)
        graph._entries, graph._data = entries, None
        return graph

    @property
    def data(self) -> np.ndarray:
        """The entries as a read-only int64 array, built on first access."""
        if self._data is None:
            data = self._entries.astype(np.int64, copy=False)
            data.setflags(write=False)
            self._data = data
        return self._data

    @property
    def v(self) -> int:
        return self._entries.shape[0]

    def __getitem__(self, index):
        return self.data[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, AdjacencyMatrix):
            return NotImplemented
        return np.array_equal(self._entries, other._entries)

    def __repr__(self) -> str:
        edges = np.count_nonzero(self._entries) // 2
        return f"AdjacencyMatrix(v={self.v}, edges={edges})"


@dataclass(frozen=True, eq=False)
class SrgParams:
    """Parameter tuple (v, k, lambda, mu) of a strongly regular graph.

    `lam_vacuous` marks that no adjacent pair exists (empty graph) and
    `mu_vacuous` that no non-adjacent pair exists (complete graph); a
    flagged value is unconstrained and ignored by equality. The quadratic
    relation k(k - lambda - 1) = (v - k - 1) mu is *not* enforced here;
    use `check_parameter_relation`.
    """

    v: int
    k: int
    lam: int
    mu: int
    lam_vacuous: bool = False
    mu_vacuous: bool = False

    def __post_init__(self) -> None:
        if self.v < 1:
            raise ValueError(f"v={self.v} must be positive")
        if not 0 <= self.k <= self.v - 1:
            raise ValueError(f"degree k={self.k} outside 0..v-1={self.v - 1}")
        if self.lam < 0 and not self.lam_vacuous:
            raise ValueError(f"lambda={self.lam} negative")
        if self.mu < 0 and not self.mu_vacuous:
            raise ValueError(f"mu={self.mu} negative")

    @property
    def deviation(self) -> int:
        return self.v - 2 * self.k - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, SrgParams):
            return NotImplemented
        if (self.v, self.k) != (other.v, other.k):
            return False
        if (self.lam_vacuous, self.mu_vacuous) != (other.lam_vacuous, other.mu_vacuous):
            return False
        if not self.lam_vacuous and self.lam != other.lam:
            return False
        if not self.mu_vacuous and self.mu != other.mu:
            return False
        return True


@dataclass(frozen=True)
class SrgSpectrum:
    """Adjacency spectrum {k (once), gamma_plus x mult_plus, gamma_minus
    x mult_minus} of a strongly regular graph.

    The trace k + f gamma_plus + g gamma_minus must vanish up to rounding:
    within 1e-12 of the size of its terms, k + f |gamma_plus| +
    g |gamma_minus| (at least 1), which must be a finite float. The bound
    is for user input: `spectrum`, whose trace vanishes exactly, skips it.
    """

    k: int
    gamma_plus: float
    gamma_minus: float
    mult_plus: int
    mult_minus: int

    def __post_init__(self) -> None:
        if self.mult_plus < 0 or self.mult_minus < 0:
            raise ValueError("multiplicities must be nonnegative")
        try:
            plus = self.mult_plus * self.gamma_plus
            minus = self.mult_minus * self.gamma_minus
            trace = self.k + plus + minus
            scale = float(self.k + abs(plus) + abs(minus))
        except OverflowError:  # an int too large for a float
            raise ValueError("trace k + f gamma_plus + g gamma_minus overflows a float") from None
        if not math.isfinite(scale) or abs(trace) > 1e-12 * max(1.0, scale):
            raise ValueError(f"trace {trace!r} != 0")

    @classmethod
    def _valid(cls, **fields) -> "SrgSpectrum":
        """Build a spectrum whose trace is known to vanish exactly, unchecked."""
        spec = object.__new__(cls)
        spec.__dict__.update(fields)
        return spec

    @property
    def v(self) -> int:
        return 1 + self.mult_plus + self.mult_minus


def verify_srg(a: AdjacencyMatrix) -> SrgParams:
    """Verify strong regularity by exact two-step path counting.

    Computes A^2 as a float32 product, exact since every count and every
    partial sum is an integer at most v - 1 < 2^24. The diagonal must be
    constant (k). lambda is the count of the first adjacent pair i < j and
    mu that of the first non-adjacent pair, in row-major order; once the
    graph is regular both lie in row 0. The graph is accepted exactly when
    D = A^2 - (lambda - mu) A with its diagonal set to mu is constant, that
    is when every adjacent pair has lambda common neighbors and every
    non-adjacent pair mu. D's entries are integers in [-(v - 1), 2(v - 1)],
    so v > 2^23 raises ValueError rather than risk a rounded one. Empty
    classes set the corresponding vacuous flag and store 0. Only on failure
    is the first differing pair searched for: a vertex whose degree differs
    from vertex 0's for `NotRegular`, and for `NotStronglyRegular` the first
    pair i < j where D differs from mu, adjacent pairs before non-adjacent
    ones, named against its class's reference pair in row 0.
    """
    adj = _as_adjacency(a)
    m, v = adj._entries, adj.v
    if v > _FLOAT32_MAX_V:
        raise ValueError(f"v={v}: float32 path counts are exact only for v <= 2^23")
    f = m.astype(np.float32)
    sq = f @ f.T  # A is symmetric, and numpy squares A A^T with one BLAS syrk

    deg = np.diag(sq)
    if deg.min() != deg.max():
        j = int(np.argmax(deg != deg[0]))
        raise NotRegular(
            f"vertex {j} has degree {int(deg[j])} but vertex 0 has {int(deg[0])}",
            witness=(0, j),
        )
    k = int(deg[0])

    lam_vacuous, mu_vacuous = k == 0, k == v - 1
    lam = 0 if lam_vacuous else int(sq[0, np.argmax(m[0])])
    mu = 0 if mu_vacuous else int(sq[0, 1 + np.argmin(m[0, 1:])])
    d = f  # D = A^2 - (lambda - mu) A, in place of A
    d *= np.float32(mu - lam)
    d += sq
    np.fill_diagonal(d, mu)
    if d.min() == d.max():
        return SrgParams(v, k, lam, mu, lam_vacuous, mu_vacuous)

    # Both classes are nonempty here: k = 0 and k = v - 1 give a constant D.
    bad = np.triu(d != mu, 1)
    bad_adjacent = bad & (m == 1)
    i, j = divmod(int(np.argmax(bad_adjacent if bad_adjacent.any() else bad)), v)
    if m[i, j]:
        kind, ref, r = "adjacent", lam, int(np.argmax(m[0]))
    else:
        kind, ref, r = "non-adjacent", mu, 1 + int(np.argmin(m[0, 1:]))
    raise NotStronglyRegular(
        f"{kind} pair ({i},{j}) has {int(sq[i, j])} common neighbors, "
        f"but pair (0,{r}) has {ref}",
        witness=(i, j),
    )


def check_parameter_relation(p: SrgParams) -> bool:
    """Whether k(k - lambda - 1) = (v - k - 1) mu holds exactly."""
    return p.k * (p.k - p.lam - 1) == (p.v - p.k - 1) * p.mu


def spectrum(p: SrgParams) -> SrgSpectrum:
    """Closed-form eigenvalues and multiplicities from the parameters.

    The non-degree eigenvalues are the roots of
    gamma^2 - (lambda - mu) gamma - (k - mu); multiplicities come from the
    zero-trace condition and must be integers, which is decided exactly.
    With d = lambda - mu, D = d^2 + 4(k - mu) and num = 2k + (v - 1)d they
    are (v - 1 -+ num/sqrt(D))/2: integers when D = r^2 with r dividing
    num and v - 1 - num/r even, or when num = 0 and v is odd. Then f + g =
    v - 1 and (f - g) sqrt(D) = -num, so the trace vanishes exactly.
    A non-integral multiplicity whose float overflows or looks integral is
    named by its closed form with v, k, lambda and mu put in. A D too large
    for a float takes its root from math.isqrt(D), within 1 of it; a root
    too large for a float raises ValueError naming D.
    """
    diff = p.lam - p.mu
    disc = diff * diff + 4 * (p.k - p.mu)
    if disc <= 0:
        raise DegenerateDiscriminant(
            f"(lambda-mu)^2 + 4(k-mu) = {disc} is not positive"
        )
    numer = 2 * p.k + (p.v - 1) * diff
    r = math.isqrt(disc)  # numer / sqrt(D) is the integer q, or irrational unless 0
    q, rem = divmod(numer, r) if r * r == disc else (0, numer)
    if rem or (p.v - 1 - q) % 2:
        try:
            value = 0.5 * ((p.v - 1) - numer / math.sqrt(disc))
        except OverflowError:
            value = math.inf
        if not math.isfinite(value) or value.is_integer():  # name the fraction exactly
            value = (
                f"({p.v} - 1 - (2*{p.k} + ({p.v}-1)*({p.lam}-{p.mu}))"
                f"/sqrt(({p.lam}-{p.mu})^2 + 4*({p.k}-{p.mu})))/2"
            )
        raise NonIntegralMultiplicity(f"multiplicity {value} is not an integer")
    try:  # past the floats, r = isqrt(D) is within 1 of D's root
        root = math.sqrt(disc) if disc <= sys.float_info.max else float(r)
    except OverflowError:
        raise ValueError(
            f"sqrt(D) overflows a float for D = ({p.lam}-{p.mu})^2 + 4*({p.k}-{p.mu})"
        ) from None
    return SrgSpectrum._valid(
        k=p.k,
        gamma_plus=0.5 * (diff + root),
        gamma_minus=0.5 * (diff - root),
        mult_plus=(p.v - 1 - q) // 2,
        mult_minus=(p.v - 1 + q) // 2,
    )


def complement(a: AdjacencyMatrix) -> AdjacencyMatrix:
    """Complement graph: disconnect neighbors, connect non-neighbors."""
    comp = _as_adjacency(a)._entries == 0
    np.fill_diagonal(comp, False)
    return AdjacencyMatrix._valid(comp)


def complement_params(p: SrgParams) -> SrgParams:
    """Parameters of the complement graph.

    (v, k, lambda, mu) maps to (v, v-k-1, v-2k+mu-2, v-2k+lambda); the
    vacuous flags swap roles (empty <-> complete). Formula values are
    stored verbatim even under a vacuous flag.
    """
    k_c = p.v - p.k - 1
    lam_c = p.v - 2 * p.k + p.mu - 2
    mu_c = p.v - 2 * p.k + p.lam
    lam_c_vacuous = p.mu_vacuous
    mu_c_vacuous = p.lam_vacuous
    if lam_c < 0 and not lam_c_vacuous:
        raise NegativeParameter(f"complement lambda = {lam_c} is negative")
    if mu_c < 0 and not mu_c_vacuous:
        raise NegativeParameter(f"complement mu = {mu_c} is negative")
    return SrgParams(p.v, k_c, lam_c, mu_c, lam_c_vacuous, mu_c_vacuous)


def deviation(p: SrgParams) -> int:
    """The deviation v - 2k - 1; graph complement negates it."""
    return p.deviation


def _as_adjacency(a) -> AdjacencyMatrix:
    if isinstance(a, AdjacencyMatrix):
        return a
    return AdjacencyMatrix(a)
