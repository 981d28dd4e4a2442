import math

import numpy as np
import pytest

from etfkit.generators import fixture_6x16
from etfkit.linalg import SymMatrix, frobenius_distance, sym_eigen


def test_sym_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SymMatrix([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
    with pytest.raises(ValueError):
        SymMatrix.symmetrized([[0.0, 1.0], [2.0, 0.0]], atol=1e-9)


def test_sym_matrix_symmetrized_is_exact():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 5))
    near = 0.5 * (a + a.T) + 1e-12 * rng.normal(size=(5, 5))
    s = SymMatrix.symmetrized(near, atol=1e-9)
    assert np.array_equal(s.data, s.data.T)
    assert s.size == 5


def test_sym_matrix_symmetrized_keeps_finite_entries_finite():
    a = np.eye(4)
    a[0, 1] = a[1, 0] = a[2, 3] = a[3, 2] = 1e308
    assert np.array_equal(SymMatrix.symmetrized(a).data, a)
    with pytest.raises(ValueError, match="asymmetry inf"):
        SymMatrix.symmetrized([[0.0, 1e308], [-1e308, 0.0]])
    # In the normal range halving first gives the bits of (a + a.T) / 2.
    near = np.random.default_rng(8).normal(size=(50, 50)) * 10.0 ** np.arange(-100, 150, 5)
    near = near + near.T + 1e-12 * (near - near.T)
    assert np.array_equal(SymMatrix.symmetrized(near, atol=np.inf).data, 0.5 * (near + near.T))


def test_sym_matrix_is_read_only():
    s = SymMatrix(np.eye(2))
    with pytest.raises(ValueError):
        s.data[0, 0] = 2.0


def test_diagonal_matrix_is_a_fixed_point():
    eig = sym_eigen(SymMatrix(np.diag([3.0, 1.0])))
    assert np.array_equal(eig.values, [3.0, 1.0])
    assert np.array_equal(eig.vectors, np.eye(2))


def test_exchange_matrix_spectrum():
    eig = sym_eigen(SymMatrix([[0.0, 1.0], [1.0, 0.0]]))
    assert eig.values == pytest.approx([1.0, -1.0], abs=1e-14)
    expected = [
        np.array([1.0, 1.0]) / math.sqrt(2.0),
        np.array([1.0, -1.0]) / math.sqrt(2.0),
    ]
    for col, ref in zip(eig.vectors.T, expected):
        assert min(np.max(np.abs(col - ref)), np.max(np.abs(col + ref))) < 1e-14


def test_fixture_gram_spectrum_matches_reference():
    phi = fixture_6x16()
    g = SymMatrix.symmetrized(phi.T @ phi, atol=1e-12)
    eig = sym_eigen(g)
    reference = np.sort(np.linalg.eigvalsh(g.data))[::-1]
    assert np.max(np.abs(eig.values - reference)) < 1e-10
    assert eig.values[:6] == pytest.approx([16.0 / 6.0] * 6, abs=1e-10)
    assert eig.values[6:] == pytest.approx([0.0] * 10, abs=1e-10)


def test_eigenpair_invariants_on_random_symmetric():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(1, 31))
        raw = rng.normal(size=(n, n))
        s = SymMatrix(0.5 * (raw + raw.T))
        eig = sym_eigen(s)
        scale = max(float(np.max(np.abs(s.data))), 1e-30)

        ortho = np.max(np.abs(eig.vectors.T @ eig.vectors - np.eye(n)))
        assert ortho < 1e-10
        resid = np.max(np.abs(s.data @ eig.vectors - eig.vectors * eig.values))
        assert resid < 1e-9 * n * scale
        rebuilt = (eig.vectors * eig.values) @ eig.vectors.T
        assert np.max(np.abs(rebuilt - s.data)) < 1e-9
        assert np.all(np.diff(eig.values) <= 0)
        assert np.trace(s.data) == pytest.approx(float(np.sum(eig.values)), abs=1e-9)


def test_scaled_idempotent_has_two_point_spectrum():
    rng = np.random.default_rng(3)
    for alpha, n, m in ((2.5, 12, 5), (8.0 / 3.0, 16, 6), (1.75, 9, 4)):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        u1 = q[:, :m]
        s = SymMatrix.symmetrized(alpha * (u1 @ u1.T), atol=1e-9)
        for value in sym_eigen(s).values:
            assert min(abs(value), abs(value - alpha)) < 1e-8


def test_frobenius_distance_examples():
    a = SymMatrix(np.diag([1.0, 1.0]))
    assert frobenius_distance(a, a) == 0.0
    b = SymMatrix(np.diag([0.0, 0.0]))
    assert frobenius_distance(a, b) == pytest.approx(math.sqrt(2.0), abs=0)

    phi = fixture_6x16()
    frame_op = SymMatrix.symmetrized(phi @ phi.T, atol=1e-12)
    target = SymMatrix((16.0 / 6.0) * np.eye(6))
    assert frobenius_distance(frame_op, target) < 1e-12


def test_frobenius_distance_size_mismatch():
    with pytest.raises(ValueError):
        frobenius_distance(SymMatrix(np.eye(2)), SymMatrix(np.eye(3)))
