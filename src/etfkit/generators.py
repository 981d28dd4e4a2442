"""Instance factories: the 6x16 packing, Steiner frames from small
2-designs, Sylvester sign matrices, and Paley graphs.

These give every operation in the package a concrete object to chew on.
The 6x16 matrix is stored as integer numerators and scaled by 1/sqrt(3)
on access, so tests against the printed entries stay exact in the
integer domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NotPrime, UnsupportedHadamardOrder, WrongResidueClass
from .graphs import AdjacencyMatrix

__all__ = [
    "BlockDesign",
    "fixture_6x16",
    "sylvester_hadamard",
    "steiner_etf",
    "fano_plane",
    "pairs_design",
    "paley",
]

_FIXTURE_NUMERATORS = np.array(
    [
        [1, -1, 1, -1, 1, -1, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, 1, -1],
        [1, 1, -1, -1, 0, 0, 0, 0, 1, 1, -1, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, -1, -1, 0, 0, 0, 0, 1, 1, -1, -1],
        [1, -1, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, -1, 1],
        [0, 0, 0, 0, 1, -1, -1, 1, 1, -1, -1, 1, 0, 0, 0, 0],
    ],
    dtype=np.int64,
)


def fixture_6x16() -> np.ndarray:
    """The 6x16 synthesis matrix realizing an optimal packing of 16 lines
    in six dimensions; entries lie in {0, +-1/sqrt(3)}."""
    return _FIXTURE_NUMERATORS / math.sqrt(3.0)


@dataclass(frozen=True)
class BlockDesign:
    """Collection of equal-size point subsets covering every pair exactly
    once (a 2-design with pair multiplicity one).

    Points are 0-based. Each point appears in the same number of blocks,
    the replication number r.
    """

    points: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.points < 2:
            raise ValueError("design needs at least two points")
        blocks = tuple(tuple(sorted(block)) for block in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("design needs at least one block")
        size = len(blocks[0])
        if size < 2:
            raise ValueError("blocks must contain at least two points")
        seen: dict[tuple[int, int], int] = {}
        counts = [0] * self.points
        for block in blocks:
            if len(block) != size:
                raise ValueError("blocks must all have the same size")
            if len(set(block)) != size:
                raise ValueError(f"block {block} repeats a point")
            for point in block:
                if not 0 <= point < self.points:
                    raise ValueError(f"point {point} outside 0..{self.points - 1}")
                counts[point] += 1
            for pair in combinations(block, 2):
                seen[pair] = seen.get(pair, 0) + 1
        for pair in combinations(range(self.points), 2):
            if seen.get(pair, 0) != 1:
                raise ValueError(
                    f"pair {pair} covered {seen.get(pair, 0)} times, expected 1"
                )
        if len(set(counts)) != 1:
            raise ValueError(f"replication is not constant: {counts}")

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])

    @property
    def replication(self) -> int:
        return sum(1 for block in self.blocks if 0 in block)


def fano_plane() -> BlockDesign:
    """The seven-point, seven-line design with three points per line."""
    return BlockDesign(
        points=7,
        blocks=(
            (0, 1, 2),
            (0, 3, 4),
            (0, 5, 6),
            (1, 3, 5),
            (1, 4, 6),
            (2, 3, 6),
            (2, 4, 5),
        ),
    )


def pairs_design(p: int) -> BlockDesign:
    """All 2-subsets of p points: C(p,2) blocks, replication p - 1."""
    if p < 2:
        raise ValueError(f"need at least two points, got {p}")
    return BlockDesign(points=p, blocks=tuple(combinations(range(p), 2)))


def sylvester_hadamard(t: int) -> np.ndarray:
    """Order-2^t sign matrix built by doubling: H H^T = 2^t I exactly."""
    if t < 0:
        raise ValueError(f"exponent must be nonnegative, got {t}")
    h = np.array([[1]], dtype=np.int64)
    for _ in range(t):
        h = np.block([[h, h], [h, -h]])
    return h


def steiner_etf(design: BlockDesign) -> np.ndarray:
    """ETF synthesis matrix built from a 2-design.

    Each point contributes r + 1 columns (r the replication number).
    Within a point's column group, the r rows indexed by the blocks
    containing it carry rows 1..r of the order-(r+1) Sylvester matrix,
    scaled by 1/sqrt(r). Same-point columns then have inner product -1/r,
    and columns of different points meet in exactly one row, giving +-1/r:
    the Welch bound of the resulting b x (points*(r+1)) frame.
    """
    r = design.replication
    order = r + 1
    if order & (order - 1):
        raise UnsupportedHadamardOrder(
            f"r + 1 = {order} is not a power of two; no sign matrix available"
        )
    h = sylvester_hadamard(order.bit_length() - 1)
    scale = 1.0 / math.sqrt(r)
    b = len(design.blocks)
    phi = np.zeros((b, design.points * order))
    for point in range(design.points):
        rows = [i for i, block in enumerate(design.blocks) if point in block]
        cols = slice(point * order, (point + 1) * order)
        for s, row in enumerate(rows):
            phi[row, cols] = h[s + 1] * scale
    return phi


def paley(q: int) -> AdjacencyMatrix:
    """Quadratic-residue graph on the integers mod a prime q = 1 (mod 4).

    Vertices i and j are adjacent when (i - j) mod q is a nonzero square.
    The result is an SRG(q, (q-1)/2, (q-5)/4, (q-1)/4), so mu = k/2.
    Since -1 is a square mod q, the matrix is symmetric. It is circulant,
    row i being the residue indicator rotated right by i places, and is
    stored as such: a read-only view whose rows are windows of one vector
    of 2q - 1 entries.
    """
    if q < 2 or not _is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if q % 4 != 1:
        raise WrongResidueClass(f"{q} = {q % 4} (mod 4); need 1 (mod 4)")
    is_residue = np.zeros(q, dtype=np.int8)
    is_residue[[pow(x, 2, q) for x in range(1, q)]] = 1
    # Window s of is_residue[1:] followed by is_residue holds entries
    # is_residue[(s + 1 + j) % q], so window q - 1 - i is row i.
    windows = sliding_window_view(np.concatenate((is_residue[1:], is_residue)), q)
    return AdjacencyMatrix._valid(windows[::-1])


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True
