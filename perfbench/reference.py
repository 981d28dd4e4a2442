"""Reference answers the benchmark computes without etfkit.

Graphs come from quadratic residues or from the sign pattern of a Gram
matrix; frames are checked against their shape, the Welch bound and an
expected Gram matrix; parameter maps use exact integers (`math.isqrt` and
`Fraction`). Nothing here imports etfkit, so a defect in the library's own
verification cannot hide a wrong answer.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

# Frame outputs come out of an eigensolver; Gram outputs are assembled in
# closed form, so they must match to a few ulps.
FRAME_TOL = 1e-8
GRAM_TOL = 1e-12
RECORD_TOL = 1e-9


def welch(m: int, n: int) -> float:
    return math.sqrt((n - m) / (m * (n - 1)))


# ------------------------------------------------------------------ graphs


def paley_params(q: int) -> tuple[int, int, int, int]:
    return q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4


def paley_adjacency(q: int, labels=None) -> np.ndarray:
    """Vertices a, b adjacent when labels[a] - labels[b] is a nonzero square mod q."""
    residue = np.zeros(q, dtype=bool)
    residue[np.arange(1, q, dtype=np.int64) ** 2 % q] = True
    lab = np.arange(q, dtype=np.int64) if labels is None else np.asarray(labels, dtype=np.int64)
    return residue[(lab[:, None] - lab[None, :]) % q]


def relabel(adj: np.ndarray, sigma) -> np.ndarray:
    """New vertex a is old vertex sigma[a]."""
    return adj[np.ix_(sigma, sigma)]


def complement(adj: np.ndarray) -> np.ndarray:
    comp = ~adj
    np.fill_diagonal(comp, False)
    return comp


def graph_text(adj: np.ndarray) -> bytes:
    """The canonical graph file: header v, then edges i < j, 1-based, sorted."""
    i, j = np.nonzero(np.triu(adj, 1))
    body = "".join(f"{a} {b}\n" for a, b in zip((i + 1).tolist(), (j + 1).tolist()))
    return f"{adj.shape[0]}\n{body}".encode()


def graph_of_gram(g: np.ndarray) -> np.ndarray:
    """Switch so row 0 is nonnegative, read positive entries as edges, drop vertex 0."""
    s = np.where(g[0] >= 0.0, 1.0, -1.0)
    s[0] = 1.0
    adj = (g * np.outer(s, s))[1:, 1:] > 0.0
    np.fill_diagonal(adj, False)
    return adj


def gram_of_graph(adj: np.ndarray, beta: float) -> np.ndarray:
    """ETF Gram of a graph: +beta on row 0 and on edges, -beta on non-edges."""
    n = adj.shape[0] + 1
    g = np.full((n, n), beta)
    g[1:, 1:] = np.where(adj, beta, -beta)
    np.fill_diagonal(g, 1.0)
    return g


# ------------------------------------------------------------------ frames


def read_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows, cols = (int(tok) for tok in lines[0].split())
    a = np.array([[float(tok) for tok in line.split()] for line in lines[1:] if line.strip()])
    if a.shape != (rows, cols):
        raise ValueError(f"{path}: body shape {a.shape} != header {(rows, cols)}")
    return a


def write_matrix(path: str, a: np.ndarray) -> None:
    rows, cols = a.shape
    with open(path, "w") as fh:
        fh.write(f"{rows} {cols}\n")
        for row in a.tolist():
            fh.write(" ".join(repr(x) for x in row) + "\n")


def check_frame(phi: np.ndarray, m: int, n: int, gram: np.ndarray | None = None) -> str | None:
    """None when phi is an m x n tight frame whose Gram is `gram` (or, without
    one, has unit diagonal and off-diagonal moduli at the Welch bound)."""
    if phi.shape != (m, n):
        return f"frame shape {phi.shape} != {(m, n)}"
    g = phi.T @ phi
    if gram is None:
        off = ~np.eye(n, dtype=bool)
        dev = max(np.max(np.abs(np.diag(g) - 1.0)), np.max(np.abs(np.abs(g[off]) - welch(m, n))))
    else:
        dev = np.max(np.abs(g - gram))
    if dev > FRAME_TOL:
        return f"Gram deviates from the reference by {float(dev):.3e}"
    tight = float(np.max(np.abs(phi @ phi.T - (n / m) * np.eye(m))))
    if tight > FRAME_TOL:
        return f"frame is not tight: max |Phi Phi^T - (n/m) I| = {tight:.3e}"
    return None


def naimark_gram(phi: np.ndarray) -> np.ndarray:
    m, n = phi.shape
    return (n * np.eye(n) - m * (phi.T @ phi)) / (n - m)


# ---------------------------------------------------------- parameter maps


def etf_dimension(v: int, k: int) -> int | None:
    """Exact m for graph parameters (v, k), or None when m is not an integer.

    With delta = v - 2k - 1, m = (v+1)/2 * (1 + delta / sqrt(delta^2 + 4v)).
    """
    delta = v - 2 * k - 1
    if delta == 0:
        return (v + 1) // 2 if v % 2 else None
    d = delta * delta + 4 * v
    r = math.isqrt(d)
    if r * r != d:
        return None
    num = (v + 1) * (r + delta)
    return num // (2 * r) if num % (2 * r) == 0 else None


def accepted_shapes(v_stop: int) -> dict[int, list[tuple[int, int]]]:
    """{v: [(k, m), ...]} for every 1 <= v < v_stop, 0 <= k < v with integral m.

    The float filter only preselects: a perfect square below 2**52 has an
    exactly integral float square root, so no accepted pair is lost, and
    `etf_dimension` decides each candidate exactly.
    """
    table = {}
    for v in range(1, v_stop):
        k = np.arange(v, dtype=np.int64)
        delta = v - 2 * k - 1
        candidates = k[(np.sqrt(delta * delta + 4 * v) % 1.0 == 0.0) | (delta == 0)]
        table[v] = [
            (kk, m) for kk in candidates.tolist() if (m := etf_dimension(v, kk)) is not None
        ]
    return table


def srg_params(m: int, n: int):
    """Exact inverse map: (v, k, lam, mu, lam_vacuous, mu_vacuous) or an error name.

    k = n/2 - 1 + (n/(2m) - 1) sqrt(m(n-1)/(n-m)); the root only matters
    when its coefficient is nonzero, and then it must be rational.
    """
    v = n - 1
    coeff = Fraction(n, 2 * m) - 1
    root = Fraction(0)
    if coeff:
        x = Fraction(m * (n - 1), n - m)
        rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
        if rn * rn != x.numerator or rd * rd != x.denominator:
            return "NonIntegralDegree"
        root = Fraction(rn, rd)
    k = Fraction(n, 2) - 1 + coeff * root
    if k.denominator != 1 or k < 0:
        return "NonIntegralDegree"
    k = int(k)
    if k == 0:
        return (v, 0, 0, 0, True, v == 1)
    if k % 2:
        return "OddDegree"
    lam_twice = 3 * k - v - 1
    if lam_twice % 2 or lam_twice < 0:
        return "NonIntegralDegree"
    return (v, k, lam_twice // 2, k // 2, False, False)


def spectrum(p):
    """(k, gamma_plus, gamma_minus, mult_plus, mult_minus) or an error name."""
    v, k, lam, mu = p[:4]
    diff = lam - mu
    disc = diff * diff + 4 * (k - mu)
    if disc <= 0:
        return "DegenerateDiscriminant"
    numer = 2 * k + (v - 1) * diff
    s = math.isqrt(disc)
    if numer != 0 and s * s != disc:
        return "NonIntegralMultiplicity"
    shift = Fraction(numer, s) if numer else Fraction(0)
    mults = [(v - 1 - shift) / 2, (v - 1 + shift) / 2]
    if any(x.denominator != 1 for x in mults):
        return "NonIntegralMultiplicity"
    if min(mults) < 0:
        return "ValueError"
    root = math.sqrt(disc)
    return (k, 0.5 * (diff + root), 0.5 * (diff - root), int(mults[0]), int(mults[1]))


def complement_params(p):
    v, k, lam, mu, lam_vacuous, mu_vacuous = p
    lam_c, mu_c = v - 2 * k + mu - 2, v - 2 * k + lam
    if (lam_c < 0 and not mu_vacuous) or (mu_c < 0 and not lam_vacuous):
        return "NegativeParameter"
    return (v, v - k - 1, lam_c, mu_c, mu_vacuous, lam_vacuous)


# ----------------------------------------------------------------- records


def srg_record(v: int, k: int, lam: int, mu: int) -> dict:
    """What `verify-srg` and the conversions print for an SRG(v, k, lam, mu)."""
    rec = {"v": v, "k": k, "lambda": lam, "mu": mu, "deviation": v - 2 * k - 1,
           "eligible": 2 * mu == k}
    m = etf_dimension(v, k) if rec["eligible"] else None
    if m is not None:
        rec.update(m=m, n=v + 1, alpha=(v + 1) / m, beta=welch(m, v + 1))
    return rec


def spectrum_record(p) -> dict:
    k, gp, gm, mp, mm = spectrum(p)
    return {"k": k, "gamma_plus": gp, "mult_plus": mp, "gamma_minus": gm, "mult_minus": mm}


def parse_record(text: str, as_json: bool = False) -> dict:
    if as_json:
        return json.loads(text)
    rec = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"not a record line: {line!r}")
        rec[key] = value == "true" if value in ("true", "false") else float(value)
    return rec


def compare_record(got: dict, want: dict) -> str | None:
    if list(got) != list(want):
        return f"record keys {list(got)} != {list(want)}"
    for key, value in want.items():
        g = got[key]
        if isinstance(value, bool) or isinstance(g, bool):
            ok = g is value
        elif isinstance(value, int):
            ok = g == value
        else:
            ok = abs(g - value) <= RECORD_TOL * max(1.0, abs(value))
        if not ok:
            return f"record {key} = {g!r}, expected {value!r}"
    return None
