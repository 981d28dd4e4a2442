"""Graph-side core: adjacency matrices, strong-regularity verification,
parameter arithmetic, spectra, complements, and the deviation.

Strong regularity is a discrete property, so every decision `verify_srg`
makes is exact. Integer row sums give the degrees (k); unless the graph is
empty or complete, A^2(i, j) counts two-step paths, which must be constant
over adjacent pairs (lambda) and over non-adjacent pairs (mu). That float32
BLAS product is exact because every count, partial sum and compared value
is an integer of magnitude below 2^24 (v <= 2^23 is checked before it). For
256 <= v <= 2048 a product holding two counts per float32, exact by the
same bound, may accept first; only the one-count product refuses.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateDiscriminant,
    EtfkitError,
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
# computes integers in [-(v - 1), 2(v - 1)], so it needs v <= 2^23. For
# 256 <= v <= 2048 it first packs rows p and p + h = ceil(v/2) of A into one,
# A(p) + 4096 A(p + h), for two counts per entry at the syrk's multiply-adds:
# the packed D's digits lie in [-(v - 2), 2(v - 2)], every value is an integer
# of magnitude at most 2 * 2046 * 4097 < 2^24, and one equals 4097 mu only
# when both its digits equal mu. Below v = 256 it saves under 0.1 ms or loses.
_FLOAT32_MAX_V = 2**23
_PACKED_MIN_V, _PACKED_MAX_V = 256, 2048


class AdjacencyMatrix:
    """Simple-graph adjacency matrix: symmetric 0/1 with zero diagonal.

    Every graph keeps one byte per entry (int8 or bool) as `_entries`, which
    etfkit reads; the public `.data` is a read-only int64 array widened
    from it on first access. Equality is exact entrywise comparison. The
    public constructor checks every clause of the invariant and keeps an
    int8 copy. etfkit's own producers (the graph-file parsers, `complement`,
    `paley` and the ETF-to-graph conversion) satisfy it by construction and
    skip the checks through `_valid`; a test wraps each of their outputs in
    the public constructor to pin that.
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
        entries = raw.astype(np.int8)
        entries.setflags(write=False)
        self._entries, self._data = entries, None

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

    `lam_vacuous` (k = 0) marks that no adjacent pair exists (empty graph)
    and `mu_vacuous` (k = v - 1) that no non-adjacent pair exists (complete
    graph); both are read from k, and a vacuous value is unconstrained and
    ignored by equality. The quadratic relation
    k(k - lambda - 1) = (v - k - 1) mu is *not* enforced here; use
    `check_parameter_relation`.
    """

    v: int
    k: int
    lam: int
    mu: int

    def __post_init__(self) -> None:
        for name in ("v", "k", "lam", "mu"):  # Python ints, as for EtfShape
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.v < 1:
            raise ValueError(f"v={self.v} must be positive")
        if not 0 <= self.k <= self.v - 1:
            raise ValueError(f"degree k={self.k} outside 0..v-1={self.v - 1}")
        if self.lam < 0 and not self.lam_vacuous:
            raise ValueError(f"lambda={self.lam} negative")
        if self.mu < 0 and not self.mu_vacuous:
            raise ValueError(f"mu={self.mu} negative")

    @property
    def lam_vacuous(self) -> bool:
        return self.k == 0

    @property
    def mu_vacuous(self) -> bool:
        return self.k == self.v - 1

    @property
    def deviation(self) -> int:
        return self.v - 2 * self.k - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, SrgParams):
            return NotImplemented
        return (
            (self.v, self.k) == (other.v, other.k)
            and (self.lam_vacuous or self.lam == other.lam)
            and (self.mu_vacuous or self.mu == other.mu)
        )


@dataclass(frozen=True)
class SrgSpectrum:
    """Adjacency spectrum {k (once), gamma_plus x mult_plus, gamma_minus
    x mult_minus} of a strongly regular graph.

    The trace k + f gamma_plus + g gamma_minus must vanish up to rounding:
    within 1e-12 of the size of its terms, k + f |gamma_plus| +
    g |gamma_minus| (at least 1). Both are taken exactly, as fractions, so
    a spectrum whose terms no float holds is judged as well; a NaN or
    infinite gamma is refused. `spectrum`'s results, whose traces vanish
    exactly, pass it as well.
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
            if math.isfinite(self.gamma_plus) and math.isfinite(self.gamma_minus):
                plus = self.mult_plus * Fraction(float(self.gamma_plus))
                minus = self.mult_minus * Fraction(float(self.gamma_minus))
                trace = self.k + plus + minus
                if abs(trace) <= Fraction(1, 10**12) * max(1, self.k + abs(plus) + abs(minus)):
                    return
                trace = float(trace)
            else:  # the float trace is NaN or infinite
                trace = self.k + self.mult_plus * self.gamma_plus + self.mult_minus * self.gamma_minus
        except OverflowError:  # a nonzero trace, or an int, too large for a float
            raise ValueError("trace k + f gamma_plus + g gamma_minus overflows a float") from None
        raise ValueError(f"trace {trace!r} != 0")

    @property
    def v(self) -> int:
        return 1 + self.mult_plus + self.mult_minus


def verify_srg(a: AdjacencyMatrix) -> SrgParams:
    """Verify strong regularity by exact two-step path counting.

    The degrees, int32 row sums of the one-byte matrix, must be constant
    (k); the empty (k = 0) and complete (k = v - 1) graphs then return
    (v, k, max(k - 1, 0), 0), an empty class storing 0, before any path
    count. Otherwise A^2 is a float32 product, exact as every count and
    partial sum is an integer below 2^24; D's entries lie in [-(v - 1),
    2(v - 1)], so this path count raises ValueError for v > 2^23. For
    256 <= v <= 2048 the same test is first made on a product of two counts
    per float32 (see `_PACKED_MAX_V`), which only accepts. lambda
    and mu are the counts of the first adjacent and non-adjacent pairs in
    row 0, and the graph is accepted exactly when D = A^2 - (lambda - mu) A
    with its diagonal set to mu is constant: every adjacent pair has lambda
    common neighbors and every other pair mu. Only on failure is a witness
    sought: a vertex whose degree differs from vertex 0's for `NotRegular`,
    and for `NotStronglyRegular` the first pair i < j where D differs from
    mu, adjacent pairs first, named against its class's pair in row 0.
    """
    adj = _as_adjacency(a)
    m, v = adj._entries, adj.v
    deg = m.sum(axis=1, dtype=np.int32)
    if deg.min() != deg.max():
        j = int(np.argmax(deg != deg[0]))
        raise NotRegular(
            f"vertex {j} has degree {int(deg[j])} but vertex 0 has {int(deg[0])}",
            witness=(0, j),
        )
    k = int(deg[0])
    if k == 0 or k == v - 1:
        return SrgParams(v, k, max(k - 1, 0), 0)
    if v > _FLOAT32_MAX_V:
        raise ValueError(f"v={v}: float32 path counts are exact only for v <= 2^23")
    f = m.astype(np.float32)
    if _PACKED_MIN_V <= v <= _PACKED_MAX_V and (params := _packed_accept(m, f, k)):
        return params
    sq = f @ f.T  # A is symmetric, and numpy squares A A^T with one BLAS syrk
    lam = int(sq[0, np.argmax(m[0])])
    mu = int(sq[0, 1 + np.argmin(m[0, 1:])])
    d = f  # D = A^2 - (lambda - mu) A, in place of A
    d *= np.float32(mu - lam)
    d += sq
    np.fill_diagonal(d, mu)
    if d.min() == d.max():
        return SrgParams(v, k, lam, mu)

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


def _packed_accept(m: np.ndarray, f: np.ndarray, k: int) -> SrgParams | None:
    """`verify_srg`'s test on packed path counts: its result, or None."""
    v, h = f.shape[0], (f.shape[0] + 1) // 2
    pk = np.zeros((h, v), np.float32)  # row p: A(p) + 4096 A(p + h)
    np.multiply(f[h:], 4096, out=pk[: v - h])
    pk += f[:h]
    x = pk @ f  # A^2(p, j) + 4096 A^2(p + h, j), as A is symmetric
    lam = int(x[0, np.argmax(m[0])]) % 4096
    mu = int(x[0, 1 + np.argmin(m[0, 1:])]) % 4096
    pk *= np.float32(lam - mu)
    x -= pk  # the packed D = A^2 - (lambda - mu) A
    x.flat[:: v + 1] += mu - k  # each diagonal digit of D, k, to mu
    x.flat[h :: v + 1] += 4096 * (mu - k)
    x[v - h :] += 4096 * mu  # an odd v's last row has one digit
    return SrgParams(v, k, lam, mu) if x.min() == x.max() == 4097 * mu else None


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
    too large for a float raises ValueError naming D. A vacuous mu reads 0,
    as `verify_srg` stores it, so parameters that compare equal share a
    spectrum.
    """
    mu = 0 if p.mu_vacuous else p.mu
    diff = p.lam - mu
    disc = diff * diff + 4 * (p.k - mu)
    if disc <= 0:
        raise DegenerateDiscriminant(
            f"(lambda-mu)^2 + 4(k-mu) = {disc} is not positive"
        )
    numer = 2 * p.k + (p.v - 1) * diff
    r = math.isqrt(disc)  # numer / sqrt(D) is the integer q, or irrational unless 0
    q, rem = divmod(numer, r) if r * r == disc else (0, numer)
    if rem or (p.v - 1 - q) % 2:
        raise _non_integral(
            NonIntegralMultiplicity, lambda value: f"multiplicity {value} is not an integer",
            lambda: 0.5 * ((p.v - 1) - numer / math.sqrt(disc)),
            lambda: f"({p.v} - 1 - (2*{p.k} + ({p.v}-1)*({p.lam}-{mu}))"
            f"/sqrt(({p.lam}-{mu})^2 + 4*({p.k}-{mu})))/2",
        )
    try:  # past the floats, r = isqrt(D) is within 1 of D's root
        root = math.sqrt(disc) if disc <= sys.float_info.max else float(r)
    except OverflowError:
        raise ValueError(
            f"sqrt(D) overflows a float for D = ({p.lam}-{mu})^2 + 4*({p.k}-{mu})"
        ) from None
    return SrgSpectrum(
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
    vacuous values swap roles (empty <-> complete). Formula values are
    stored verbatim even where they are vacuous.
    """
    k_c = p.v - p.k - 1
    lam_c = p.v - 2 * p.k + p.mu - 2
    mu_c = p.v - 2 * p.k + p.lam
    if lam_c < 0 and not p.mu_vacuous:
        raise NegativeParameter(f"complement lambda = {lam_c} is negative")
    if mu_c < 0 and not p.lam_vacuous:
        raise NegativeParameter(f"complement mu = {mu_c} is negative")
    return SrgParams(p.v, k_c, lam_c, mu_c)


def deviation(p: SrgParams) -> int:
    """The deviation v - 2k - 1; graph complement negates it."""
    return p.deviation


def _non_integral(error, message, value, closed_form) -> EtfkitError:
    """`error(message(x))`, x naming a non-integral value: the float
    `value()`, or where that overflows, is not finite or looks integral,
    `closed_form()`. The closed form prints only the inputs, never a product
    of them; where an input passes Python's int-to-str digit limit, which
    the CLI holds its inputs to, the message prints no number."""
    try:
        x = value()
    except OverflowError:
        x = math.nan
    try:
        return error(message(x if math.isfinite(x) and not x.is_integer() else closed_form()))
    except ValueError:  # the digit limit
        return error(f"{error.__name__}: an input passes the int-to-str digit limit")


def _as_adjacency(a) -> AdjacencyMatrix:
    if isinstance(a, AdjacencyMatrix):
        return a
    return AdjacencyMatrix(a)
