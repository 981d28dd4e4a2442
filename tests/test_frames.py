import math

import numpy as np
import pytest

import etfkit as ek
from etfkit.errors import (
    BetaZero,
    ColumnsNotUnitNorm,
    DiagonalNotUnit,
    NotIdempotentScaled,
    OffDiagonalNotEquimodular,
)
from etfkit.linalg import SymMatrix


def simplex_gram_3() -> SymMatrix:
    g = np.full((3, 3), -0.5)
    np.fill_diagonal(g, 1.0)
    return SymMatrix(g)


# ------------------------------------------------------------- welch_bound


def test_welch_bound_values():
    assert ek.welch_bound(7, 28) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert ek.welch_bound(6, 16) == pytest.approx(math.sqrt(10.0 / 90.0), abs=0)
    assert ek.welch_bound(6, 16) == pytest.approx(1.0 / 3.0, abs=1e-15)
    for m in (1, 2, 9):
        assert ek.welch_bound(m, m) == 0.0


def test_welch_bound_rejects_m_above_n():
    with pytest.raises(ValueError):
        ek.welch_bound(5, 4)
    with pytest.raises(ValueError):
        ek.welch_bound(0, 4)


# --------------------------------------------------- coherence / tightness


def test_orthonormal_columns_have_zero_coherence():
    assert ek.coherence(np.eye(4)) == 0.0
    assert ek.tightness_defect(np.eye(4)) == 0.0


def test_fixture_attains_the_bound(fixture_phi):
    assert abs(ek.coherence(fixture_phi) - 1.0 / 3.0) < 1e-12
    assert ek.tightness_defect(fixture_phi) < 1e-12


def test_coherence_of_frame_from_quadratic_residue_graph():
    g, _ = ek.srg_to_etf_gram(ek.paley(13))
    phi = ek.synthesize_from_gram(g)
    assert phi.shape == (7, 14)
    assert ek.coherence(phi) == pytest.approx(1.0 / math.sqrt(13.0), abs=1e-12)
    assert ek.coherence(phi) == pytest.approx(ek.welch_bound(7, 14), abs=1e-12)


def test_repeated_vector_tightness_defect():
    phi = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert ek.tightness_defect(phi) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_non_unit_columns_are_rejected():
    with pytest.raises(ColumnsNotUnitNorm):
        ek.coherence(2.0 * np.eye(3))
    with pytest.raises(ColumnsNotUnitNorm):
        ek.tightness_defect(0.5 * np.eye(3))


def _fixture_with_column_0_scaled(by: float) -> np.ndarray:
    phi = ek.fixture_6x16().copy()
    phi[:, 0] *= by
    return phi


def test_unit_columns_are_judged_by_the_verification_tolerance():
    # Scaled by 1 + 3e-9, column 0 is within DEFAULT_TOL of unit norm, and
    # verification accepts the frame's Gram: coherence and tightness agree.
    phi = _fixture_with_column_0_scaled(1 + 3e-9)
    assert ek.verify_etf_gram(ek.gram(phi)).m == 6
    assert ek.coherence(phi) == 0.33333333433333345
    assert ek.tightness_defect(phi) == pytest.approx(6.0e-9, rel=1e-6)
    phi = _fixture_with_column_0_scaled(1 + 2e-8)
    for measure in (ek.coherence, ek.tightness_defect):
        with pytest.raises(ColumnsNotUnitNorm, match=r"^column 0 has norm 1\.00000002"):
            measure(phi)


def test_a_nan_column_is_not_unit_norm():
    phi = ek.fixture_6x16().copy()
    phi[0, 3] = np.nan
    for measure in (ek.coherence, ek.tightness_defect):
        with pytest.raises(ColumnsNotUnitNorm, match=r"^column 3 has norm nan, expected 1$"):
            measure(phi)


@pytest.mark.parametrize("measure", [
    ek.gram, ek.coherence, ek.tightness_defect, lambda phi: ek.switch(phi, []),
], ids=["gram", "coherence", "tightness_defect", "switch"])
def test_a_frame_without_columns_is_refused_naming_its_shape(measure):
    # Its Gram would be a 0 x 0 matrix, which SymMatrix refuses.
    with pytest.raises(ValueError, match=r"^expected a synthesis matrix with columns, got shape \(3, 0\)$"):
        measure(np.zeros((3, 0)))


def test_random_frames_respect_the_bound():
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(m + 1, 2 * m + 6))
        phi = rng.normal(size=(m, n))
        phi /= np.sqrt(np.sum(phi * phi, axis=0))
        assert ek.coherence(phi) >= ek.welch_bound(m, n) - 1e-9


# ---------------------------------------------------------- verify_etf_gram


def test_identity_gram_is_degenerate_etf():
    summary = ek.verify_etf_gram(SymMatrix(np.eye(5)))
    assert (summary.n, summary.m, summary.alpha, summary.beta) == (5, 5, 1.0, 0.0)


def test_fixture_gram_summary(fixture_phi):
    summary = ek.verify_etf_gram(ek.gram(fixture_phi))
    assert summary.n == 16
    assert summary.m == 6
    assert summary.alpha == pytest.approx(8.0 / 3.0, abs=1e-12)
    assert summary.beta == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_single_bad_modulus_is_flagged():
    g = np.eye(4)
    g[0, 1] = g[1, 0] = 0.5
    with pytest.raises(OffDiagonalNotEquimodular):
        ek.verify_etf_gram(SymMatrix(g))


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinite_off_diagonal_is_flagged(value):
    g = np.eye(4)
    g[0, 1] = g[1, 0] = value
    with pytest.raises(OffDiagonalNotEquimodular):
        ek.verify_etf_gram(SymMatrix(g))
    with pytest.raises(OffDiagonalNotEquimodular):
        ek.synthesize_from_gram(SymMatrix(g))


def test_bad_diagonal_is_flagged_first():
    g = np.eye(4)
    g[0, 0] = 1.5
    g[0, 1] = g[1, 0] = 0.5
    with pytest.raises(DiagonalNotUnit):
        ek.verify_etf_gram(SymMatrix(g))


def test_bad_diagonal_message_prints_a_plain_float():
    g = np.eye(4)
    g[0, 0] = 1.5
    with pytest.raises(DiagonalNotUnit, match=r"^G\(0,0\) = 1\.5 != 1$"):
        ek.verify_etf_gram(SymMatrix(g))


def test_bad_modulus_message_prints_a_plain_float():
    g = np.eye(4)
    g[0, 1] = g[1, 0] = 0.5
    with pytest.raises(
        OffDiagonalNotEquimodular,
        match=r"^\|G\(0,1\)\| = 0\.5 vs common modulus 0\.08333333333333333$",
    ):
        ek.verify_etf_gram(SymMatrix(g))


@pytest.mark.parametrize("value, text", [(np.inf, "inf"), (-np.inf, "-inf")])
def test_non_finite_modulus_message_names_the_entry(value, text):
    g = np.eye(4)
    g[1, 2] = g[2, 1] = value
    with pytest.raises(OffDiagonalNotEquimodular, match=rf"^G\(1,2\) = {text} is not finite$"):
        ek.verify_etf_gram(g)


def test_nan_off_diagonal_message_names_the_entry():
    g = np.eye(4)
    g[1, 2] = g[2, 1] = np.nan
    with pytest.raises(OffDiagonalNotEquimodular, match=r"^G\(1,2\) = nan is not finite$"):
        ek.verify_etf_gram(g)


def test_non_unit_column_message_prints_a_plain_float():
    with pytest.raises(ColumnsNotUnitNorm, match=r"^column 0 has norm 2\.0, expected 1$"):
        ek.coherence(2.0 * np.eye(3))


def test_sign_flip_breaks_idempotency(fixture_phi):
    g = np.array(ek.gram(fixture_phi).data)
    g[0, 1] = -g[0, 1]
    g[1, 0] = -g[1, 0]
    with pytest.raises(NotIdempotentScaled):
        ek.verify_etf_gram(SymMatrix(g))


def test_sign_flip_message_names_a_witness_pair(fixture_phi):
    g = np.array(ek.gram(fixture_phi).data)
    g[2, 5] = g[5, 2] = -g[2, 5]
    with pytest.raises(
        NotIdempotentScaled,
        match=r"^signs fail S\^2 = 15 I \+ c S: S\^2\(0,2\) S\(0,2\) = 4, "
        r"but S\^2\(0,1\) S\(0,1\) = 2$",
    ):
        ek.verify_etf_gram(SymMatrix(g))


def test_near_identity_is_orthonormal_within_tol():
    # beta (1 + (n-1) beta) <= tol bounds max |G^2 - G| whatever the signs.
    g = np.eye(4) + 1e-9 * np.array([[0, 1, -1, 1], [1, 0, 1, 1], [-1, 1, 0, -1], [1, 1, -1, 0]])
    summary = ek.verify_etf_gram(SymMatrix(g))
    assert (summary.m, summary.alpha) == (4, 1.0)
    assert summary.beta == pytest.approx(1e-9, rel=1e-12)
    with pytest.raises(NotIdempotentScaled):
        ek.verify_etf_gram(SymMatrix(g), tol=1e-10)


def test_small_perturbation_fails_at_default_tolerance(fixture_phi):
    g = np.array(ek.gram(fixture_phi).data)
    g[2, 3] += 1e-4
    g[3, 2] += 1e-4
    with pytest.raises(OffDiagonalNotEquimodular):
        ek.verify_etf_gram(SymMatrix(g))
    # A loose tolerance accepts the same matrix.
    loose = ek.verify_etf_gram(SymMatrix(g), tol=1e-3)
    assert loose.m == 6


def test_verify_rejects_nonpositive_tolerance(fixture_phi):
    with pytest.raises(ValueError):
        ek.verify_etf_gram(ek.gram(fixture_phi), tol=0.0)


# ------------------------------------------------------ synthesize_from_gram


def test_synthesize_identity_gram_gives_orthogonal_matrix():
    phi = ek.synthesize_from_gram(SymMatrix(np.eye(3)))
    assert phi.shape == (3, 3)
    assert np.max(np.abs(phi @ phi.T - np.eye(3))) < 1e-10
    assert np.max(np.abs(phi.T @ phi - np.eye(3))) < 1e-10


def test_synthesize_simplex():
    g = simplex_gram_3()
    phi = ek.synthesize_from_gram(g)
    assert phi.shape == (2, 3)
    assert ek.coherence(phi) == pytest.approx(0.5, abs=1e-12)
    assert ek.welch_bound(2, 3) == pytest.approx(0.5, abs=0)
    assert np.max(np.abs(phi.T @ phi - g.data)) < 1e-8


def test_synthesize_reconstructs_fixture_gram(fixture_phi):
    g = ek.gram(fixture_phi)
    phi = ek.synthesize_from_gram(g)
    assert phi.shape == (6, 16)
    assert np.max(np.abs(phi.T @ phi - g.data)) < 1e-8
    assert np.max(np.abs(phi @ phi.T - (16.0 / 6.0) * np.eye(6))) < 1e-8


def test_synthesize_propagates_verification_failures():
    with pytest.raises(OffDiagonalNotEquimodular):
        g = np.eye(4)
        g[0, 1] = g[1, 0] = 0.5
        ek.synthesize_from_gram(SymMatrix(g))


# --------------------------------------------------- naimark_complement_gram


def test_naimark_of_fixture(fixture_phi):
    g = ek.gram(fixture_phi)
    summary = ek.verify_etf_gram(g)
    comp = ek.naimark_complement_gram(g, summary)

    comp_summary = ek.verify_etf_gram(comp)
    assert (comp_summary.n, comp_summary.m) == (16, 10)
    assert comp_summary.beta == pytest.approx(1.0 / 5.0, abs=1e-12)
    off = comp.data[~np.eye(16, dtype=bool)]
    assert np.all(np.isin(np.round(off * 5.0), (-1.0, 1.0)))
    assert np.allclose(np.diag(comp.data), 1.0, atol=1e-12)


def test_naimark_of_simplex_is_rank_one():
    g = simplex_gram_3()
    summary = ek.verify_etf_gram(g)
    comp = ek.naimark_complement_gram(g, summary)
    assert np.allclose(comp.data, 1.0, atol=1e-12)
    comp_summary = ek.verify_etf_gram(comp)
    assert (comp_summary.m, comp_summary.n) == (1, 3)


def test_naimark_is_an_involution(fixture_phi):
    g = ek.gram(fixture_phi)
    summary = ek.verify_etf_gram(g)
    comp = ek.naimark_complement_gram(g, summary)
    back = ek.naimark_complement_gram(comp, ek.verify_etf_gram(comp))
    assert np.max(np.abs(back.data - g.data)) < 1e-12


def test_naimark_identity(fixture_phi):
    g = ek.gram(fixture_phi)
    summary = ek.verify_etf_gram(g)
    comp = ek.naimark_complement_gram(g, summary)
    m, n = summary.m, summary.n
    mixed = (m / n) * g.data + ((n - m) / n) * comp.data
    assert np.max(np.abs(mixed - np.eye(n))) < 1e-12


def test_naimark_rejects_square_case():
    g = SymMatrix(np.eye(4))
    with pytest.raises(BetaZero):
        ek.naimark_complement_gram(g, ek.verify_etf_gram(g))


# ------------------------------------------------------ switch / normalize


def test_switch_identity_pattern(fixture_phi):
    assert np.array_equal(ek.switch(fixture_phi, np.ones(16, dtype=int)), fixture_phi)


def test_switch_global_negation_keeps_coherence(fixture_phi):
    flipped = ek.switch(fixture_phi, -np.ones(16, dtype=int))
    assert ek.coherence(flipped) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert np.array_equal(flipped, -fixture_phi)


def test_switch_by_first_row_signs_normalizes(fixture_phi):
    g = np.asarray(fixture_phi).T @ np.asarray(fixture_phi)
    signs = np.where(g[0] >= 0, 1, -1)
    signs[0] = 1
    switched = ek.switch(fixture_phi, signs)
    g2 = ek.gram(switched)
    assert np.all(g2.data[0, 1:] > 0)
    assert np.allclose(g2.data[0, 1:], 1.0 / 3.0, atol=1e-12)


def test_switch_length_mismatch():
    with pytest.raises(ValueError):
        ek.switch(np.eye(3), np.array([1, -1]))
    with pytest.raises(ValueError):
        ek.switch(np.eye(3), np.array([1, 0, 1]))


def test_switch_preserves_summary_exactly(fixture_phi):
    rng = np.random.default_rng(5)
    base = ek.verify_etf_gram(ek.gram(fixture_phi))
    for _ in range(5):
        signs = rng.choice([-1, 1], size=16)
        switched = ek.verify_etf_gram(ek.gram(ek.switch(fixture_phi, signs)))
        assert switched.m == base.m
        assert switched.alpha == base.alpha
        assert switched.beta == base.beta


def test_sign_normalize_fixture(fixture_phi):
    g = ek.gram(fixture_phi)
    summary = ek.verify_etf_gram(g)
    normalized, signs = ek.sign_normalize(g, summary)
    assert signs[0] == 1
    assert signs[1] == -1  # <phi_1, phi_2> = -1/3 in the fixture
    assert np.allclose(normalized.data[0, 1:], 1.0 / 3.0, atol=1e-12)


def test_sign_normalize_is_idempotent(fixture_phi):
    g = ek.gram(fixture_phi)
    summary = ek.verify_etf_gram(g)
    once, _ = ek.sign_normalize(g, summary)
    twice, again = ek.sign_normalize(once, summary)
    assert np.array_equal(twice.data, once.data)
    assert np.all(again == 1)


def test_sign_normalize_rejects_beta_zero():
    g = SymMatrix(np.eye(4))
    with pytest.raises(BetaZero):
        ek.sign_normalize(g, ek.verify_etf_gram(g))


# ----------------------------------------------------------- shared checks


def test_verified_grams_attain_welch_and_trace_identity(fixture_phi, fano_phi):
    grams = [ek.gram(fixture_phi), ek.gram(fano_phi), simplex_gram_3()]
    for q in (5, 13):
        grams.append(ek.srg_to_etf_gram(ek.paley(q))[0])
    for g in grams:
        summary = ek.verify_etf_gram(g)
        if summary.m < summary.n:
            expected = ek.welch_bound(summary.m, summary.n)
            assert abs(summary.beta - expected) < 1e-9
        assert abs(summary.m * summary.alpha - summary.n) < 1e-9
        resynth = ek.gram(ek.synthesize_from_gram(g))
        assert np.max(np.abs(resynth.data - g.data)) < 1e-8
