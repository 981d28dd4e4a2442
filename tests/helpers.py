"""Brute-force oracles and inputs shared by the tests.

The oracles deliberately avoid the library's own verified code paths: graph
parameters are counted with python sets, and reference spectra come from
numpy's eigensolver.
"""

from __future__ import annotations

import numpy as np

import etfkit as ek


def brute_srg_params(adj: np.ndarray):
    """Count common neighbors pair by pair with python sets.

    Returns (v, k, lam, mu) with None for an empty class, or None if the
    graph is not strongly regular.
    """
    a = np.asarray(adj)
    v = a.shape[0]
    nbrs = [set(np.flatnonzero(a[i]).tolist()) for i in range(v)]
    degrees = {len(nbrs[i]) for i in range(v)}
    if len(degrees) != 1:
        return None
    k = degrees.pop()
    lams: set[int] = set()
    mus: set[int] = set()
    for i in range(v):
        for j in range(i + 1, v):
            common = len(nbrs[i] & nbrs[j])
            (lams if a[i, j] else mus).add(common)
    if len(lams) > 1 or len(mus) > 1:
        return None
    lam = lams.pop() if lams else None
    mu = mus.pop() if mus else None
    return v, k, lam, mu


def record_to_dict(text: str) -> dict[str, str]:
    """Parse `key = value` lines emitted by the CLI into a dict."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def shrunk_paley_13_frame() -> np.ndarray:
    """A 14 x 14 frame whose Gram is (1 - 2e-9) G + 2e-9 I, G the Paley(13)
    ETF Gram: within the default tolerance 1e-8 of an ETF, its root residual
    |1 + 13 beta^2 - 2| about 4e-9."""
    g = ek.srg_to_etf_gram(ek.paley(13))[0].data
    w, u = np.linalg.eigh((1 - 2e-9) * g + 2e-9 * np.eye(14))
    return np.sqrt(w)[:, np.newaxis] * u.T


def noisy_paley_29_frame() -> np.ndarray:
    """The Paley(29) ETF's frame plus Gaussian noise of deviation 1e-5
    (seed 0), columns renormalised: an ETF within ETFKIT_TOL=1e-4."""
    phi = ek.synthesize_from_gram(ek.srg_to_etf_gram(ek.paley(29))[0])
    phi = phi + 1e-5 * np.random.default_rng(0).standard_normal(phi.shape)
    return phi / np.linalg.norm(phi, axis=0)


def noisy_paley_101_gram() -> np.ndarray:
    """The Paley(101) ETF Gram plus E + E^T, E uniform in [-5e-9, 5e-9]
    (seed 0): every entry within the default tolerance 1e-8 of the Gram."""
    g = ek.srg_to_etf_gram(ek.paley(101))[0].data
    e = np.random.default_rng(0).uniform(-5e-9, 5e-9, g.shape)
    return g + e + e.T
