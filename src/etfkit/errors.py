"""Exception types raised by verification and conversion routines.

Everything here derives from :class:`EtfkitError`, so callers (notably the
command-line front end) can treat "the input is mathematically unsuitable"
uniformly, while still catching individual failure modes by name.
"""


class EtfkitError(Exception):
    """Base class for all domain errors raised by this package."""


# Gram-matrix verification: one exception per violated clause of the
# equiangular-tight-frame characterization, raised in check order
# (diagonal, then off-diagonal moduli, then the scaled idempotency).

class GramVerificationError(EtfkitError):
    """The matrix is not the Gram matrix of a real ETF."""


class DiagonalNotUnit(GramVerificationError):
    """Some diagonal entry differs from 1 beyond tolerance."""


class OffDiagonalNotEquimodular(GramVerificationError):
    """Off-diagonal magnitudes do not share a common value."""


class NotIdempotentScaled(GramVerificationError):
    """G^2 != alpha*G: the sign pattern S fails S^2 = (n-1) I + c S, or
    beta is not the root that c implies within tolerance."""


class BetaZero(EtfkitError):
    """Orthonormal case (m == n): the common off-diagonal modulus is zero,
    so sign normalization, Naimark complements, and all graph conversions
    are undefined."""


class ColumnsNotUnitNorm(EtfkitError):
    """A column of the synthesis matrix is not unit norm."""


# Graph-side verification.

class SrgVerificationError(EtfkitError):
    """The adjacency matrix does not describe a strongly regular graph."""

    def __init__(self, message: str, witness: tuple[int, int] | None = None):
        super().__init__(message)
        self.witness = witness  # the pair of vertices its subclass names, or None


class NotRegular(SrgVerificationError):
    """Vertex degrees are not all equal.

    Attributes:
        witness: a pair of vertices (0-based) with differing degrees.
    """


class NotStronglyRegular(SrgVerificationError):
    """Common-neighbor counts are not constant over a vertex-pair class.

    Attributes:
        witness: the first pair (i, j), 0-based row-major, whose count
            disagrees with the first pair of its class.
    """


class DegenerateDiscriminant(EtfkitError):
    """The eigenvalue quadratic has a non-positive discriminant."""


class NonIntegralMultiplicity(EtfkitError):
    """Closed-form eigenvalue multiplicities are not integers."""


class NegativeParameter(EtfkitError):
    """A derived graph parameter came out negative."""


# Frame <-> graph conversions.

class NotAnEtf(EtfkitError):
    """The given vectors do not form an equiangular tight frame."""


class NotAnSrg(EtfkitError):
    """The given graph is not strongly regular."""


class NotEligible(EtfkitError):
    """The graph is strongly regular but mu != k/2, so it corresponds to
    no real ETF."""


class NonIntegralDegree(EtfkitError):
    """The closed-form graph degree for these frame dimensions is not a
    nonnegative integer (no real ETF of this shape can exist)."""


class OddDegree(EtfkitError):
    """The closed-form graph degree is odd, so mu = k/2 is not integral."""


class NonIntegralDimension(EtfkitError):
    """The closed-form frame dimension for these graph parameters is not
    an integer."""


class InternalInconsistency(EtfkitError):
    """A conversion produced an object that fails its own exact re-check.
    Nothing raises it now: the Seidel identity, decided exactly, implies
    what the re-checks tested. It stays for code that catches it."""


# Instance generators.

class UnsupportedHadamardOrder(EtfkitError):
    """The construction needs a sign matrix of an order this package does
    not build (only powers of two are available)."""


class NotPrime(EtfkitError):
    """The requested modulus is not prime."""


class WrongResidueClass(EtfkitError):
    """The prime is not congruent to 1 mod 4, so the quadratic-residue
    relation is not symmetric."""
