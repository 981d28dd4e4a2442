import math
import re
from itertools import combinations

import numpy as np
import pytest

import etfkit as ek
from etfkit.errors import NotPrime, UnsupportedHadamardOrder, WrongResidueClass
from etfkit.generators import BlockDesign, sylvester_hadamard

from helpers import brute_srg_params


# ----------------------------------------------------------------- fixture


def test_fixture_entries():
    phi = ek.fixture_6x16()
    assert phi.shape == (6, 16)
    assert phi[0, 0] == 1.0 / math.sqrt(3.0)
    assert phi[0, 8] == 0.0
    assert phi[4, 3] == 1.0 / math.sqrt(3.0)
    assert phi[5, 6] == -1.0 / math.sqrt(3.0)
    scaled = phi * math.sqrt(3.0)
    assert np.allclose(scaled, np.rint(scaled), atol=1e-12)
    assert set(np.rint(scaled).astype(int).ravel()) == {-1, 0, 1}


def test_fixture_columns_are_unit_norm():
    phi = ek.fixture_6x16()
    norms = np.sqrt(np.sum(phi * phi, axis=0))
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_fixture_gram_verifies():
    summary = ek.verify_etf_gram(ek.gram(ek.fixture_6x16()))
    assert summary.m == 6
    assert summary.beta == pytest.approx(1.0 / 3.0, abs=1e-12)


# --------------------------------------------------------------- sylvester


def test_sylvester_small_orders():
    assert np.array_equal(sylvester_hadamard(0), [[1]])
    assert np.array_equal(sylvester_hadamard(1), [[1, 1], [1, -1]])
    h4 = sylvester_hadamard(2)
    assert np.array_equal(h4 @ h4.T, 4 * np.eye(4, dtype=int))
    with pytest.raises(ValueError, match="^exponent must be nonnegative, got -1$"):
        sylvester_hadamard(-1)


def test_sylvester_rows_are_signs():
    h8 = sylvester_hadamard(3)
    assert set(h8.ravel()) == {-1, 1}
    assert np.array_equal(h8 @ h8.T, 8 * np.eye(8, dtype=int))


# ----------------------------------------------------------------- designs


def test_fano_plane_structure():
    fano = ek.fano_plane()
    assert fano.points == 7
    assert len(fano.blocks) == 7
    assert fano.block_size == 3
    assert fano.replication == 3
    cover = {pair: 0 for pair in combinations(range(7), 2)}
    for block in fano.blocks:
        for pair in combinations(block, 2):
            cover[pair] += 1
    assert all(count == 1 for count in cover.values())


def test_pairs_design_counts():
    quad = ek.pairs_design(4)
    assert len(quad.blocks) == 6
    assert quad.replication == 3
    tiny = ek.pairs_design(2)
    assert len(tiny.blocks) == 1
    assert tiny.replication == 1
    with pytest.raises(ValueError):
        ek.pairs_design(1)


def test_block_design_validation():
    with pytest.raises(ValueError):
        BlockDesign(points=4, blocks=((0, 1), (0, 1), (2, 3)))
    with pytest.raises(ValueError):
        BlockDesign(points=4, blocks=((0, 1), (2, 3)))  # pair (0,2) uncovered
    with pytest.raises(ValueError):
        BlockDesign(points=3, blocks=((0, 1, 2), (0, 1)))  # ragged sizes
    for points, blocks, message in [
        (1, ((0,),), "design needs at least two points"),
        (3, (), "design needs at least one block"),
        (3, ((0,), (1,)), "blocks must contain at least two points"),
        (3, ((1, 0, 1),), "block (0, 1, 1) repeats a point"),
        (3, ((0, 3),), "point 3 outside 0..2"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BlockDesign(points=points, blocks=blocks)


# ------------------------------------------------------------- steiner_etf


def test_steiner_pairs4_matches_fixture_up_to_switching(fixture_phi):
    phi = ek.steiner_etf(ek.pairs_design(4))
    assert phi.shape == (6, 16)
    assert ek.coherence(phi) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def normalized_row_counts(syn):
        g = ek.gram(syn)
        summary = ek.verify_etf_gram(g)
        norm, _ = ek.sign_normalize(g, summary)
        counts = []
        for i in range(norm.size):
            row = np.delete(norm.data[i], i)
            counts.append((int(np.sum(row > 0)), int(np.sum(row < 0))))
        return sorted(counts)

    assert normalized_row_counts(phi) == normalized_row_counts(fixture_phi)


def test_steiner_fano_is_a_7x28_etf():
    phi = ek.steiner_etf(ek.fano_plane())
    assert phi.shape == (7, 28)
    assert ek.tightness_defect(phi) <= 1e-10
    assert abs(ek.coherence(phi) - ek.welch_bound(7, 28)) <= 1e-10
    assert ek.coherence(phi) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_steiner_tiny_design():
    phi = ek.steiner_etf(ek.pairs_design(2))
    assert phi.shape == (1, 4)
    assert ek.tightness_defect(phi) <= 1e-10
    assert abs(ek.coherence(phi) - ek.welch_bound(1, 4)) <= 1e-10


def test_steiner_rejects_unbuildable_orders():
    with pytest.raises(UnsupportedHadamardOrder):
        ek.steiner_etf(ek.pairs_design(3))  # r + 1 = 3


def test_generated_frames_verify():
    for design in (ek.pairs_design(2), ek.pairs_design(4), ek.fano_plane()):
        phi = ek.steiner_etf(design)
        summary = ek.verify_etf_gram(ek.gram(phi))
        m, n = phi.shape
        assert (summary.m, summary.n) == (m, n)
        assert abs(summary.beta - ek.welch_bound(m, n)) <= 1e-10


# ------------------------------------------------------------------- paley


def test_paley_5_is_the_pentagon():
    a = ek.paley(5)
    cycle = np.zeros((5, 5), dtype=int)
    for i in range(5):
        cycle[i, (i + 1) % 5] = cycle[(i + 1) % 5, i] = 1
    assert np.array_equal(a.data, cycle)
    assert ek.verify_srg(a) == ek.SrgParams(5, 2, 0, 1)


def test_paley_13_parameters():
    assert brute_srg_params(ek.paley(13).data) == (13, 6, 2, 3)


def test_paley_rejects_bad_moduli():
    with pytest.raises(WrongResidueClass):
        ek.paley(7)
    with pytest.raises(WrongResidueClass):
        ek.paley(2)
    with pytest.raises(NotPrime):
        ek.paley(9)
    with pytest.raises(NotPrime):
        ek.paley(1)


@pytest.mark.parametrize("q", [5, 13, 17, 29, 37])
def test_paley_closed_form_parameters(q):
    params = ek.verify_srg(ek.paley(q))
    assert params == ek.SrgParams(q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4)
    assert ek.is_etf_eligible(params)
