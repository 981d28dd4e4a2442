import math
from fractions import Fraction

import numpy as np
import pytest

import etfkit as ek
from etfkit.correspondence import (
    ConversionReport,
    EtfShape,
    _etf_gram_to_srg,
    _integral_degree,
    _integral_dimension,
)
from etfkit.errors import (
    BetaZero,
    NonIntegralDegree,
    NonIntegralDimension,
    NotAnEtf,
    NotAnSrg,
    NotEligible,
    NotIdempotentScaled,
    OddDegree,
    SrgVerificationError,
)
from etfkit.frames import DEFAULT_TOL
from etfkit.graphs import AdjacencyMatrix, SrgParams
from etfkit.linalg import SymMatrix

from helpers import brute_srg_params


def empty_graph(v: int) -> AdjacencyMatrix:
    return AdjacencyMatrix(np.zeros((v, v), dtype=int))


def complete_graph(v: int) -> AdjacencyMatrix:
    return AdjacencyMatrix(1 - np.eye(v, dtype=int))


def eligible_instances(srg_15_8, srg_27_16):
    yield ek.paley(5)
    yield ek.paley(13)
    yield ek.paley(17)
    yield srg_15_8
    yield srg_27_16
    yield ek.complement(srg_15_8)
    yield ek.complement(srg_27_16)
    for v in (1, 2, 3, 6):
        yield empty_graph(v)


# -------------------------------------------------------- parameter mapping


def test_shape_to_graph_params_examples():
    assert ek.etf_params_to_srg_params(EtfShape(7, 28)) == SrgParams(27, 16, 10, 8)
    assert ek.etf_params_to_srg_params(EtfShape(6, 16)) == SrgParams(15, 8, 4, 4)
    assert ek.etf_params_to_srg_params(EtfShape(3, 6)) == SrgParams(5, 2, 0, 1)


def test_shape_to_graph_params_simplex_is_vacuous():
    params = ek.etf_params_to_srg_params(EtfShape(5, 6))
    assert (params.v, params.k) == (5, 0)
    assert params.lam_vacuous and not params.mu_vacuous


def test_graph_params_to_shape_examples():
    assert ek.srg_params_to_etf_params(27, 16) == EtfShape(7, 28)
    assert ek.srg_params_to_etf_params(13, 6) == EtfShape(7, 14)
    assert ek.srg_params_to_etf_params(15, 8) == EtfShape(6, 16)


def test_graph_params_to_shape_non_integral():
    with pytest.raises(NonIntegralDimension):
        ek.srg_params_to_etf_params(10, 3)


@pytest.mark.parametrize("v, k", [(1973, 585), (1973, 1387), (2974, 1311)])
def test_near_integral_dimension_is_rejected(v, k):
    # m lies within 1e-6 of an integer here, but delta^2 + 4v is no square.
    with pytest.raises(NonIntegralDimension):
        ek.srg_params_to_etf_params(v, k)


def _integral_dimensions(v: int) -> dict[int, int]:
    """{k: m} for every degree k on v vertices whose dimension m is an integer.

    m = (v+1)/2 * (1 + delta/r) with delta = v - 2k - 1 and r^2 = delta^2 + 4v
    is rational only when delta = 0 or r is an integer, that is when
    (r - delta)(r + delta) = 4v; m itself comes from exact fractions.
    """
    candidates = {0: 1}  # delta -> r; r does not matter when delta = 0
    for lo in range(1, math.isqrt(4 * v) + 1):
        hi, rem = divmod(4 * v, lo)
        if not rem and (hi - lo) % 2 == 0:
            candidates[(hi - lo) // 2] = candidates[(lo - hi) // 2] = (hi + lo) // 2
    found = {}
    for delta, r in candidates.items():
        k, odd = divmod(v - 1 - delta, 2)
        m = Fraction(v + 1, 2) * (1 + Fraction(delta, r))
        if not odd and 0 <= k <= v - 1 and m.denominator == 1:
            found[k] = m.numerator
    return found


def test_dimension_matches_the_exact_reference_for_every_v_below_3000():
    # The integrality rule itself, over 4.5 million pairs; the public map
    # raises exactly when it returns None (checked below v = 1000 here).
    for v in range(1, 3000):
        got = {k: m for k in range(v) if (m := _integral_dimension(v, k)) is not None}
        assert got == _integral_dimensions(v), v
        if v < 1000:
            for k in range(v):
                try:
                    m = ek.srg_params_to_etf_params(v, k).m
                except NonIntegralDimension:
                    m = None
                assert m == got.get(k), (v, k)


def _degree_reference(m: int, n: int) -> int | None:
    """k = n/2 - 1 + (n - 2m)/(2m) sqrt(m(n-1)/(n-m)) when it is a nonnegative
    integer, else None, in exact fractions."""
    ratio = Fraction(m * (n - 1), n - m)
    a, b = ratio.numerator, ratio.denominator
    root = Fraction(math.isqrt(a), math.isqrt(b))
    if root * root != ratio and n != 2 * m:  # an irrational root times n - 2m = 0 is 0
        return None
    k = Fraction(n, 2) - 1 + Fraction(n - 2 * m, 2 * m) * root
    return int(k) if k.denominator == 1 and k >= 0 else None


def test_degree_matches_the_exact_reference():
    # The rule for every shape with n < 500, the public map for n < 200, and
    # the two shapes whose degree lies within 1e-6 of the integers 924, 874.
    shapes = [(m, n) for n in range(2, 500) for m in range(1, n)]
    for m, n in shapes + [(443, 1800), (1357, 1800)]:
        assert _integral_degree(m, n) == _degree_reference(m, n), (m, n)
    for m, n in shapes:
        if n >= 200:
            break
        k = _degree_reference(m, n)
        try:
            got = ek.etf_params_to_srg_params(EtfShape(m, n)).k
        except NonIntegralDegree as exc:
            assert (k is None) == str(exc).startswith("degree "), (m, n)
            continue
        except OddDegree:
            assert k is not None and k % 2, (m, n)
            continue
        assert got == k, (m, n)


@pytest.mark.parametrize("m", [443, 1357])
def test_near_integral_degree_is_rejected(m):
    # k lies within 1e-6 of an integer, but m(n-1)/(n-m) is no rational square.
    with pytest.raises(NonIntegralDegree, match=rf"^degree .* for shape \({m},1800\)$"):
        ek.etf_params_to_srg_params(EtfShape(m, 1800))


def test_odd_degree_is_rejected():
    # (2, 4) forces k = 1, which has no integral mu = k/2.
    with pytest.raises(OddDegree):
        ek.etf_params_to_srg_params(EtfShape(2, 4))


def test_one_dimensional_shapes_give_complete_graphs():
    # n copies of one vector: K_{n-1}, whose mu is vacuous, for odd k too.
    for n in range(2, 40):
        params = ek.etf_params_to_srg_params(EtfShape(1, n))
        assert params == ek.verify_srg(complete_graph(n - 1)), n
        assert ek.srg_params_to_etf_params(n - 1, n - 2) == EtfShape(1, n)


def test_integer_round_trip_over_small_parameters():
    hits = 0
    for v in range(1, 61):
        for k in range(0, v):
            try:
                shape = ek.srg_params_to_etf_params(v, k)
            except NonIntegralDimension:
                continue
            try:
                params = ek.etf_params_to_srg_params(shape)
            except ek.EtfkitError:
                continue  # no mu = k/2 counterpart (odd degree etc.)
            assert (params.v, params.k) == (v, k)
            hits += 1
    assert hits > 30


def test_real_valued_round_trip():
    # Forward and backward closed forms agree on real inputs, not just
    # integer ones; 1000 random pairs in each direction.
    rng = np.random.default_rng(20260810)

    def graph_degree(m: float, n: float) -> float:
        return n / 2.0 - 1.0 + (n / (2.0 * m) - 1.0) * math.sqrt(
            m * (n - 1.0) / (n - m)
        )

    def frame_dimension(v: float, k: float) -> float:
        delta = v - 2.0 * k - 1.0
        return 0.5 * (v + 1.0) * (1.0 + delta / math.sqrt(delta * delta + 4.0 * v))

    for _ in range(1000):
        m = float(rng.uniform(0.2, 40.0))
        n = m + float(rng.uniform(0.1, 40.0))
        if n <= 1.0:
            n = 1.0 + float(rng.uniform(0.1, 2.0))
        k = graph_degree(m, n)
        assert abs(frame_dimension(n - 1.0, k) - m) <= 1e-9

    for _ in range(1000):
        v = float(rng.uniform(0.3, 60.0))
        k = float(rng.uniform(-1.0, v))
        m = frame_dimension(v, k)
        assert v + 1.0 > max(m, 1.0)
        assert abs(graph_degree(m, v + 1.0) - k) <= 1e-9


# -------------------------------------------------------------- eligibility


def test_eligibility_examples():
    assert ek.is_etf_eligible(SrgParams(27, 16, 10, 8))
    assert not ek.is_etf_eligible(SrgParams(10, 3, 0, 1))
    empty = ek.verify_srg(empty_graph(4))
    assert ek.is_etf_eligible(empty)


def test_complete_graph_is_eligible():
    assert ek.is_etf_eligible(ek.verify_srg(complete_graph(4)))


def test_eligibility_closure_under_complement():
    checked = 0
    for v in range(5, 51):
        for k in range(2, v, 2):
            lam2 = 3 * k - v - 1
            if lam2 < 0 or lam2 % 2:
                continue
            params = SrgParams(v, k, lam2 // 2, k // 2)
            assert ek.is_etf_eligible(params)
            try:
                comp = ek.complement_params(params)
            except ek.EtfkitError:
                continue
            assert ek.is_etf_eligible(comp)
            checked += 1
    assert checked > 50


# ------------------------------------------------------------- etf_to_srg


def test_fixture_converts_to_15_8_4_4(fixture_phi):
    graph, report = ek.etf_to_srg(fixture_phi)
    assert report.params == SrgParams(15, 8, 4, 4)
    assert brute_srg_params(graph.data) == (15, 8, 4, 4)
    assert report.shape == EtfShape(6, 16)
    assert report.beta == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert report.signs[0] == 1


def test_fano_frame_converts_to_27_16_10_8(fano_phi):
    graph, report = ek.etf_to_srg(fano_phi)
    assert report.params == SrgParams(27, 16, 10, 8)
    assert brute_srg_params(graph.data) == (27, 16, 10, 8)
    assert report.alpha == pytest.approx(4.0, abs=1e-12)


def test_orthonormal_basis_has_no_graph():
    with pytest.raises(BetaZero):
        ek.etf_to_srg(np.eye(4))


def test_non_etf_is_rejected():
    rng = np.random.default_rng(2)
    phi = rng.normal(size=(3, 7))
    phi /= np.sqrt(np.sum(phi * phi, axis=0))
    with pytest.raises(NotAnEtf):
        ek.etf_to_srg(phi)


def test_conversion_is_switching_invariant(fixture_phi):
    rng = np.random.default_rng(9)
    graph, _ = ek.etf_to_srg(fixture_phi)
    for _ in range(3):
        signs = rng.choice([-1, 1], size=16)
        switched_graph, _ = ek.etf_to_srg(ek.switch(fixture_phi, signs))
        # Switching vectors 2..n permutes nothing here: the stripped graph
        # depends only on the sign pattern relative to vector 1, which the
        # normalization inside the conversion makes canonical.
        assert switched_graph == graph


# ---------------------------------------------------------- srg_to_etf_gram


def test_paley_13_gram():
    g, report = ek.srg_to_etf_gram(ek.paley(13))
    assert g.size == 14
    assert report.shape == EtfShape(7, 14)
    assert report.beta == pytest.approx(1.0 / math.sqrt(13.0), abs=1e-12)


def test_srg_15_8_gram(srg_15_8):
    g, report = ek.srg_to_etf_gram(srg_15_8)
    assert report.beta == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert report.shape == EtfShape(6, 16)
    phi = ek.synthesize_from_gram(g)
    assert phi.shape == (6, 16)
    assert ek.coherence(phi) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_empty_graph_gives_simplex():
    for v in (1, 2, 5):
        g, report = ek.srg_to_etf_gram(empty_graph(v))
        assert report.shape == EtfShape(v, v + 1)
        assert report.beta == pytest.approx(1.0 / v, abs=1e-12)
        summary = ek.verify_etf_gram(g)
        assert summary.m == v


def test_ineligible_and_invalid_graphs_are_rejected():
    petersen_like = ek.complement(ek.paley(5))  # eligible, so perturb instead
    assert ek.is_etf_eligible(ek.verify_srg(petersen_like))
    cycle6 = np.zeros((6, 6), dtype=int)
    for i in range(6):
        cycle6[i, (i + 1) % 6] = cycle6[(i + 1) % 6, i] = 1
    with pytest.raises(NotAnSrg):
        ek.srg_to_etf_gram(AdjacencyMatrix(cycle6))
    k33 = AdjacencyMatrix(np.kron([[0, 1], [1, 0]], np.ones((3, 3), dtype=int)))
    with pytest.raises(NotEligible):  # (6, 3, 0, 3)
        ek.srg_to_etf_gram(k33)


def test_minus_root_dimensions(srg_15_8, srg_27_16):
    _, plus = ek.srg_to_etf_gram(srg_15_8)
    _, minus = ek.srg_to_etf_gram_minus(srg_15_8)
    assert minus.shape.m == 10
    assert plus.shape.m + minus.shape.m == 16

    _, plus27 = ek.srg_to_etf_gram(srg_27_16)
    _, minus27 = ek.srg_to_etf_gram_minus(srg_27_16)
    assert plus27.shape.m == 7
    assert minus27.shape.m == 21
    assert plus27.shape.m + minus27.shape.m == 28


def test_minus_root_with_zero_deviation_flips_signs():
    a = ek.paley(13)
    g_plus, plus = ek.srg_to_etf_gram(a)
    g_minus, minus = ek.srg_to_etf_gram_minus(a)
    assert minus.shape.m == plus.shape.m == 7
    assert minus.beta == -plus.beta
    off = ~np.eye(14, dtype=bool)
    assert np.array_equal(g_minus.data[off], -g_plus.data[off])
    assert np.array_equal(np.diag(g_minus.data), np.diag(g_plus.data))


def test_minus_gram_is_the_naimark_complement(srg_15_8):
    g_plus, plus = ek.srg_to_etf_gram(srg_15_8)
    g_minus, minus = ek.srg_to_etf_gram_minus(srg_15_8)
    n = plus.shape.n
    m, mp = plus.shape.m, minus.shape.m
    mixed = (m / n) * g_plus.data + (mp / n) * g_minus.data
    assert np.max(np.abs(mixed - np.eye(n))) < 1e-9

    comp = ek.naimark_complement_gram(g_plus, ek.verify_etf_gram(g_plus))
    assert np.max(np.abs(comp.data - g_minus.data)) < 1e-9


# -------------------------------------------------------------- round trips


def test_graph_round_trip_is_exact(srg_15_8, srg_27_16):
    for graph in eligible_instances(srg_15_8, srg_27_16):
        g, _ = ek.srg_to_etf_gram(graph)
        phi = ek.synthesize_from_gram(g)
        back, _ = ek.etf_to_srg(phi)
        assert back == graph


def test_dimension_pairing(srg_15_8, srg_27_16):
    for graph in eligible_instances(srg_15_8, srg_27_16):
        params = ek.verify_srg(graph)
        _, plus = ek.srg_to_etf_gram(graph)
        _, minus = ek.srg_to_etf_gram_minus(graph)
        assert plus.shape.m + minus.shape.m == params.v + 1


def test_alpha_consistency_of_reports(fixture_phi, srg_15_8, srg_27_16):
    reports = [ek.etf_to_srg(fixture_phi)[1]]
    for graph in eligible_instances(srg_15_8, srg_27_16):
        reports.append(ek.srg_to_etf_gram(graph)[1])
        reports.append(ek.srg_to_etf_gram_minus(graph)[1])
    for report in reports:
        v = report.params.v
        delta = ek.deviation(report.params)
        assert abs(report.alpha - (v * report.beta**2 + 1.0)) <= 1e-9
        assert abs(report.alpha - (-delta * report.beta + 2.0)) <= 1e-9


def test_positive_root_equals_welch_bound(srg_15_8, srg_27_16):
    for graph in eligible_instances(srg_15_8, srg_27_16):
        _, report = ek.srg_to_etf_gram(graph)
        assert abs(report.beta - ek.welch_bound(report.shape.m, report.shape.n)) <= 1e-9


def test_report_invariants_are_enforced():
    with pytest.raises(ValueError):
        ConversionReport(
            shape=EtfShape(6, 16),
            params=SrgParams(15, 8, 4, 4),
            beta=0.5,  # inconsistent with alpha = 8/3
            alpha=8.0 / 3.0,
            signs=np.ones(16, dtype=int),
        )
    with pytest.raises(ValueError):
        ConversionReport(
            shape=EtfShape(6, 16),
            params=SrgParams(13, 6, 2, 3),
            beta=1.0 / 3.0,
            alpha=8.0 / 3.0,
            signs=np.ones(16, dtype=int),
        )


# ------------------------------------------------------- exhaustive, v <= 6


def _labelled_graphs(v: int) -> np.ndarray:
    """Every labelled graph on v vertices, as a stack of adjacency matrices."""
    i, j = np.triu_indices(v, 1)
    bits = (np.arange(2**i.size)[:, np.newaxis] >> np.arange(i.size)) & 1
    adj = np.zeros((bits.shape[0], v, v), dtype=np.int64)
    adj[:, i, j] = adj[:, j, i] = bits
    return adj


def test_every_graph_on_at_most_six_vertices():
    # Each Seidel matrix on n = v + 1 <= 7 points switches to one whose
    # row 0 is +1, off-diagonal S(i, j) = +1 on an edge of a graph on the
    # other v points and -1 off it. The identity S^2 = (n-1) I + c S is
    # decided here in integers, and it must hold exactly when verify_srg
    # and is_etf_eligible accept the graph, and exactly when
    # verify_etf_gram accepts I + beta S for the root beta of c at (0,1).
    # Eligible graphs then round-trip through both Grams: the plus root
    # gives back the graph, the minus root (the Naimark complement) its
    # complement.
    graphs = 0
    for v in range(1, 7):
        n = v + 1
        adj = _labelled_graphs(v)
        s = np.ones((adj.shape[0], n, n), dtype=np.int64)
        s[:, 1:, 1:] = 2 * adj - 1
        s[:, np.arange(n), np.arange(n)] = 0
        p = (s @ s) * s
        c = p[:, 0, 1]
        holds = np.all(p[:, ~np.eye(n, dtype=bool)] == c[:, np.newaxis], axis=1)
        for a, sign, c0, identity in zip(adj, s, c.tolist(), holds.tolist()):
            graphs += 1
            graph = AdjacencyMatrix(a)
            try:
                params = ek.verify_srg(graph)
                eligible = ek.is_etf_eligible(params)
            except SrgVerificationError:
                eligible = False
            assert eligible == identity, a

            beta = (c0 + math.sqrt(c0 * c0 + 4 * (n - 1))) / (2 * (n - 1))
            try:
                summary = ek.verify_etf_gram(SymMatrix(np.eye(n) + beta * sign))
            except NotIdempotentScaled:
                summary = None
            assert (summary is not None) == identity, a
            if not identity:
                continue

            g, plus = ek.srg_to_etf_gram(graph)
            back, report = _etf_gram_to_srg(g, DEFAULT_TOL)
            assert plus.shape == report.shape == EtfShape(summary.m, n)
            assert back == graph and report.params == params

            g, minus = ek.srg_to_etf_gram_minus(graph)
            back, report = _etf_gram_to_srg(g, DEFAULT_TOL)
            assert minus.shape == report.shape == EtfShape(n - summary.m, n)
            assert back == ek.complement(graph)
            assert report.params == ek.complement_params(params)
    assert graphs == 1 + 2 + 8 + 64 + 1024 + 32768
