import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    NonIntegralMultiplicity,
    NotAnEtf,
    NotAnSrg,
    NotEligible,
    NotIdempotentScaled,
    OddDegree,
    SrgVerificationError,
)
from etfkit.graphs import AdjacencyMatrix, SrgParams
from etfkit.linalg import SymMatrix

from helpers import (
    brute_srg_params,
    complete_graph,
    empty_graph,
    labelled_graphs,
    noisy_paley_29_frame,
    shrunk_paley_13_frame,
)


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


@pytest.mark.parametrize("integer", [int, np.int64, np.int32])
def test_parameter_maps_read_numpy_integers_as_python_ints(integer):
    # A fixed-width integer would overflow the exact arithmetic: int64
    # squares past 2^63 at m = 1, n = 3e6.
    assert ek.welch_bound(integer(7), integer(28)) == 0.3333333333333333
    shape = EtfShape(integer(1), integer(3_000_000))
    assert (type(shape.m), type(shape.n)) == (int, int)
    assert ek.etf_params_to_srg_params(shape) == SrgParams(2999999, 2999998, 2999997, 0)
    simplex = EtfShape(integer(3_000_000), integer(3_000_001))
    assert ek.etf_params_to_srg_params(simplex) == SrgParams(3000000, 0, 0, 0)
    assert ek.srg_params_to_etf_params(integer(27), integer(16)) == EtfShape(7, 28)
    params = SrgParams(*map(integer, (27, 16, 10, 8)))
    assert {type(x) for x in (params.v, params.k, params.lam, params.mu)} == {int}
    with pytest.raises(TypeError):
        ek.welch_bound(7.0, 28.0)


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


def _eligible_shapes_below(v_stop: int):
    """(m, v + 1) for both roots of every eligible (v, k) with v < v_stop."""
    for v in range(1, v_stop):
        for m in _integral_dimensions(v).values():
            try:
                ek.etf_params_to_srg_params(EtfShape(m, v + 1))
            except (NonIntegralDegree, OddDegree):
                continue
            yield from ((m, v + 1), (v + 1 - m, v + 1))


def _shapes_across_the_underflow_band():
    """Shapes whose (n-m)/(m(n-1)) is past the floats, with a normal beta
    (1e-300), a subnormal one (1e-320, 1e-323) or none (1e-324, 1e-400)."""
    return [(10**e, 10**e + 1) for e in (300, 320, 323, 324, 400)]


@pytest.mark.parametrize("shapes, count", [
    (lambda: _eligible_shapes_below(3000), 14108),
    (_shapes_across_the_underflow_band, 5),
], ids=["eligible-below-3000", "underflow-band"])
def test_welch_bound_is_the_correctly_rounded_root(shapes, count):
    # The root to 60 digits, rounded once to a float: 0.0 when it underflows.
    context = decimal.Context(prec=60)
    seen = 0
    for m, n in shapes():
        want = float(context.sqrt(context.divide(n - m, m * (n - 1))))
        if want == 0.0:
            with pytest.raises(ValueError, match="underflows to 0"):
                ek.welch_bound(m, n)
        else:
            assert ek.welch_bound(m, n) == want, (m, n)
        seen += 1
    assert seen == count


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


def test_a_non_integral_quantity_past_the_digit_limit_raises_its_named_error():
    # 10^4400 has more digits than Python turns into a str: the message,
    # which cannot print it, names the error instead.
    for call, error in [
        (lambda: ek.srg_params_to_etf_params(10**4400, 1), NonIntegralDimension),
        (lambda: ek.spectrum(SrgParams(10**4400, 2, 1, 0)), NonIntegralMultiplicity),
        (lambda: ek.etf_params_to_srg_params(EtfShape(2, 10**4400)), NonIntegralDegree),
    ]:
        message = f"^{error.__name__}: an input passes the int-to-str digit limit$"
        with pytest.raises(error, match=message):
            call()


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


def test_every_eligible_parameter_set_below_1000_maps_to_a_shape_and_back():
    # verify-srg prints the frame half of every eligible graph, and verify-etf
    # the graph half of every ETF with m < n, without a fallback: mu = k/2 and
    # integral multiplicities make m integral, and the shape maps back.
    eligible = []
    for v in range(1, 1000):
        for k in range(2, v - 1, 2):  # mu = k/2, with both pair classes present
            lam_twice = 3 * k - v - 1
            if lam_twice < 0 or lam_twice % 2:
                continue
            p = SrgParams(v, k, lam_twice // 2, k // 2)
            if not ek.check_parameter_relation(p):
                continue
            try:
                ek.spectrum(p)
            except NonIntegralMultiplicity:
                continue
            eligible.append(p)
        # The empty and the complete graph, whose lambda or mu is vacuous.
        eligible.append(SrgParams(v, 0, 0, 0))
        if v > 1:
            eligible.append(SrgParams(v, v - 1, v - 2, 0))
    assert len(eligible) == 381 + 999 + 998
    for p in eligible:
        shape = ek.srg_params_to_etf_params(p.v, p.k)
        assert ek.etf_params_to_srg_params(shape) == p, p


# -------------------------------------------------------------- eligibility


def test_eligibility_examples():
    assert ek.is_etf_eligible(SrgParams(27, 16, 10, 8))
    assert not ek.is_etf_eligible(SrgParams(10, 3, 0, 1))
    # mu = 3 is not vacuous at k = 2 < v - 1, so it must equal k/2.
    assert not ek.is_etf_eligible(SrgParams(5, 2, 0, 3))
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


def _paley_frame(q: int) -> np.ndarray:
    return ek.synthesize_from_gram(ek.srg_to_etf_gram(ek.paley(q))[0])


_DESCENDANT_FRAMES = {
    "paley-13": lambda: _paley_frame(13),
    "paley-29": lambda: _paley_frame(29),
    "6x16": ek.fixture_6x16,
    "fano": lambda: ek.steiner_etf(ek.fano_plane()),
}


@pytest.mark.parametrize("naimark", [False, True], ids=["frame", "naimark"])
@pytest.mark.parametrize("name", sorted(_DESCENDANT_FRAMES))
def test_every_descendant_of_an_etf_has_the_same_parameters(name, naimark):
    # The dictionary is defined on switching classes: normalising against
    # vector j, moved to the front, strips out the descendant at j, and
    # every descendant of a regular two-graph is strongly regular with the
    # same parameters (Seidel), though not necessarily isomorphic.
    phi = _DESCENDANT_FRAMES[name]()
    if naimark:
        g = ek.gram(phi)
        phi = ek.synthesize_from_gram(ek.naimark_complement_gram(g, ek.verify_etf_gram(g)))
    n = phi.shape[1]
    params = ek.etf_to_srg(phi)[1].params
    for j in range(n):
        graph, report = ek.etf_to_srg(phi[:, [j, *range(j), *range(j + 1, n)]])
        assert report.params == ek.verify_srg(graph) == params, j


def test_a_frame_within_tol_of_an_etf_converts():
    # Verification accepts the frame at tol = 1e-8 with its root residual
    # about 4e-9, so the report re-decides nothing and the graph is Paley(13).
    phi = shrunk_paley_13_frame()
    summary = ek.verify_etf_gram(ek.gram(phi))
    graph, report = ek.etf_to_srg(phi)
    assert graph == ek.paley(13)
    assert report.shape == EtfShape(summary.m, summary.n) == EtfShape(7, 14)
    assert (report.alpha, report.beta) == (summary.alpha, summary.beta)
    graph, report = ek.etf_to_srg(noisy_paley_29_frame(), tol=1e-4)
    assert graph == ek.paley(29) and report.shape == EtfShape(15, 30)


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


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("convert", [ek.srg_to_etf_gram, ek.srg_to_etf_gram_minus])
def test_srg_to_etf_rejects_a_tolerance_that_is_not_finite_positive(convert, tol):
    # Nothing re-verifies the assembled Gram, but its tol keeps the rule of
    # every tolerance, as verify_etf_gram's does.
    with pytest.raises(ValueError, match="tolerance"):
        convert(ek.paley(13), tol)


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


# Every prime q = 1 (mod 4) up to 101: the Paley graphs `paley` builds.
_PALEY_PRIMES = [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), q=st.sampled_from(_PALEY_PRIMES))
def test_relabelled_paley_graphs_round_trip_through_the_gram(data, q):
    graph = ek.paley(q)
    sigma = np.array(data.draw(st.permutations(range(q))))
    relabelled = AdjacencyMatrix(graph.data[np.ix_(sigma, sigma)])
    g, _ = ek.srg_to_etf_gram(graph)
    assert _etf_gram_to_srg(g, ek.verify_etf_gram(g))[0] == graph
    # Gram index 0 is the extra vector; indices 1..q are the vertices.
    tau = np.concatenate(([0], 1 + sigma))
    permuted = SymMatrix(g.data[np.ix_(tau, tau)])
    assert np.array_equal(ek.srg_to_etf_gram(relabelled)[0].data, permuted.data)
    assert _etf_gram_to_srg(permuted, ek.verify_etf_gram(permuted))[0] == relabelled


_STEINER_FRAMES = {
    "fano": lambda: ek.steiner_etf(ek.fano_plane()),
    "pairs4": lambda: ek.steiner_etf(ek.pairs_design(4)),
    "6x16": ek.fixture_6x16,
}


@pytest.mark.parametrize("name", sorted(_STEINER_FRAMES))
def test_relabelled_steiner_frames_round_trip_through_the_graph(name):
    # Negating columns and permuting columns 1..n-1 by sigma relabels the
    # graph by sigma; the Gram of that graph is the switched, permuted Gram
    # of the frame, and it converts back to the same graph.
    phi = _STEINER_FRAMES[name]()
    graph, report = ek.etf_to_srg(phi)
    n = phi.shape[1]
    rng = np.random.default_rng(7)
    for _ in range(5):
        signs = rng.choice([-1, 1], size=n)
        sigma = rng.permutation(n - 1)
        tau = np.concatenate(([0], 1 + sigma))
        moved = (phi * signs)[:, tau]
        relabelled, moved_report = ek.etf_to_srg(moved)
        assert relabelled == AdjacencyMatrix(graph.data[np.ix_(sigma, sigma)])
        assert moved_report.params == report.params
        assert moved_report.shape == report.shape

        g, back_report = ek.srg_to_etf_gram(relabelled)
        moved_gram = ek.gram(moved)
        switched, _ = ek.sign_normalize(moved_gram, ek.verify_etf_gram(moved_gram))
        assert np.max(np.abs(g.data - switched.data)) < 1e-12
        assert back_report.shape == report.shape
        assert _etf_gram_to_srg(g, ek.verify_etf_gram(g))[0] == relabelled


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
    with pytest.raises(ValueError, match="alpha"):
        ConversionReport(
            shape=EtfShape(6, 16),
            params=SrgParams(15, 8, 4, 4),
            beta=1.0 / 3.0,
            alpha=math.nextafter(16 / 6, 3.0),  # one ulp from n/m
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
        adj = labelled_graphs(v)
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
            # verify-etf prints this graph half with no fallback.
            assert ek.etf_params_to_srg_params(EtfShape(summary.m, n)) == params

            # Each Gram is I + beta S as written: 1.0 on its diagonal, and its
            # off-diagonal modulus read back as the beta the conversion reports.
            g, plus = ek.srg_to_etf_gram(graph)
            measured = ek.verify_etf_gram(g)
            assert (np.diag(g.data) == 1.0).all() and measured.beta == abs(plus.beta), a
            back, report = _etf_gram_to_srg(g, measured)
            assert plus.shape == report.shape == EtfShape(summary.m, n)
            assert back == graph and report.params == params

            g, minus = ek.srg_to_etf_gram_minus(graph)
            measured = ek.verify_etf_gram(g)
            assert (np.diag(g.data) == 1.0).all() and measured.beta == abs(minus.beta), a
            back, report = _etf_gram_to_srg(g, measured)
            assert minus.shape == report.shape == EtfShape(n - summary.m, n)
            # Both roots take beta from the one Welch bound of their shape.
            for root in (plus, minus):
                assert abs(root.beta) == ek.welch_bound(root.shape.m, root.shape.n), a
            assert back == ek.complement(graph)
            assert report.params == ek.complement_params(params)
    assert graphs == 1 + 2 + 8 + 64 + 1024 + 32768
