import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etfkit as ek
from etfkit.errors import (
    DegenerateDiscriminant,
    NegativeParameter,
    NonIntegralMultiplicity,
    NotRegular,
    NotStronglyRegular,
)
from etfkit.graphs import AdjacencyMatrix, SrgParams, SrgSpectrum
from etfkit.linalg import SymMatrix, sym_eigen

from helpers import brute_srg_params, complete_graph, empty_graph


def cycle_graph(v: int) -> AdjacencyMatrix:
    adj = np.zeros((v, v), dtype=int)
    for i in range(v):
        adj[i, (i + 1) % v] = adj[(i + 1) % v, i] = 1
    return AdjacencyMatrix(adj)


# ----------------------------------------------------------- AdjacencyMatrix


def test_adjacency_rejects_bad_input():
    with pytest.raises(ValueError):
        AdjacencyMatrix(np.array([[0, 2], [2, 0]]))
    with pytest.raises(ValueError):
        AdjacencyMatrix(np.array([[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        AdjacencyMatrix(np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        AdjacencyMatrix(np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError, match="^graph must have at least one vertex$"):
        AdjacencyMatrix(np.zeros((0, 0), dtype=int))


def test_adjacency_equality_is_exact():
    assert cycle_graph(5) == cycle_graph(5)
    assert cycle_graph(5) != empty_graph(5)
    assert cycle_graph(5) != cycle_graph(5).data.tolist()  # a graph is not its entries


def test_adjacency_indexes_its_int64_entries_and_names_its_size():
    c5 = cycle_graph(5)
    assert (c5[0, 1], c5[0, 2], c5[0].dtype) == (1, 0, np.int64)
    assert repr(c5) == "AdjacencyMatrix(v=5, edges=5)"


# ------------------------------------------------------------------ verify


def test_five_cycle_params():
    params = ek.verify_srg(cycle_graph(5))
    assert params == SrgParams(5, 2, 0, 1)
    assert brute_srg_params(cycle_graph(5).data) == (5, 2, 0, 1)


def test_paley_13_params():
    a = ek.paley(13)
    params = ek.verify_srg(a)
    assert params == SrgParams(13, 6, 2, 3)
    assert brute_srg_params(a.data) == (13, 6, 2, 3)


def test_verify_srg_checks_a_plain_array_as_the_public_constructor_does():
    assert ek.verify_srg(cycle_graph(5).data.copy()) == SrgParams(5, 2, 0, 1)
    with pytest.raises(ValueError, match=r"^diagonal must be zero \(no loops\)$"):
        ek.verify_srg(np.eye(3, dtype=int))


def test_path_graph_is_not_regular():
    path = AdjacencyMatrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    with pytest.raises(NotRegular) as info:
        ek.verify_srg(path)
    assert info.value.witness is not None


def test_six_cycle_is_regular_but_not_srg():
    with pytest.raises(NotStronglyRegular) as info:
        ek.verify_srg(cycle_graph(6))
    i, j = info.value.witness
    assert 0 <= i < j < 6
    # First violation in row-major order over non-adjacent pairs:
    # (0,2) has one common neighbor while (0,3) has none.
    assert (i, j) == (0, 3)


def flipped(graph: AdjacencyMatrix, *pairs) -> AdjacencyMatrix:
    adj = graph.data.copy()
    for i, j in pairs:
        adj[i, j] = adj[j, i] = 1 - adj[i, j]
    return AdjacencyMatrix(adj)


# Paley 13 with edges (0,1), (2,3) swapped for non-edges (0,2), (1,3): degrees
# stay 6, so the first failure is in a pair class.
PALEY_13_SWITCHED = ((0, 1), (2, 3), (0, 2), (1, 3))


_NON_SRG_CASES = [
    (AdjacencyMatrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])), NotRegular,
     "vertex 1 has degree 2 but vertex 0 has 1", (0, 1)),
    (cycle_graph(6), NotStronglyRegular,
     "non-adjacent pair (0,3) has 0 common neighbors, but pair (0,2) has 1", (0, 3)),
    (flipped(ek.paley(13), (0, 1)), NotRegular,
     "vertex 2 has degree 6 but vertex 0 has 5", (0, 2)),
    (flipped(ek.paley(13), *PALEY_13_SWITCHED), NotStronglyRegular,
     "adjacent pair (0,3) has 2 common neighbors, but pair (0,2) has 1", (0, 3)),
    (ek.complement(flipped(ek.paley(13), *PALEY_13_SWITCHED)), NotStronglyRegular,
     "adjacent pair (0,5) has 2 common neighbors, but pair (0,1) has 3", (0, 5)),
]
_NON_SRG_IDS = ["path3", "cycle6", "paley13-flip", "paley13-switch", "paley13-switch-complement"]


@pytest.mark.parametrize("graph, error, message, witness", _NON_SRG_CASES, ids=_NON_SRG_IDS)
def test_non_srg_message_and_witness_are_exact(graph, error, message, witness):
    with pytest.raises(error) as info:
        ek.verify_srg(graph)
    assert str(info.value) == message
    assert info.value.witness == witness


def _verify_srg_by_hand(adj: list[list[int]]):
    """verify_srg's outcome from pure-python path counts: the fields of its
    SrgParams, or its exception class, message and witness."""
    v = len(adj)
    paths = [[sum(adj[i][x] * adj[x][j] for x in range(v)) for j in range(v)] for i in range(v)]
    for j in range(v):
        if paths[j][j] != paths[0][0]:
            message = f"vertex {j} has degree {paths[j][j]} but vertex 0 has {paths[0][0]}"
            return NotRegular, message, (0, j)
    counts, vacuous = [], []
    for kind, edge in (("adjacent", 1), ("non-adjacent", 0)):
        pairs = [(i, j) for i in range(v) for j in range(i + 1, v) if adj[i][j] == edge]
        if not pairs:
            counts.append(0)
            vacuous.append(True)
            continue
        i0, j0 = pairs[0]
        for i, j in pairs:
            if paths[i][j] != paths[i0][j0]:
                message = (f"{kind} pair ({i},{j}) has {paths[i][j]} common neighbors, "
                           f"but pair ({i0},{j0}) has {paths[i0][j0]}")
                return NotStronglyRegular, message, (i, j)
        counts.append(paths[i0][j0])
        vacuous.append(False)
    return (v, paths[0][0], *counts, *vacuous)


def _complete_multipartite(parts: list[int]) -> np.ndarray:
    part = np.repeat(np.arange(len(parts)), parts)
    return (part[:, None] != part[None, :]).astype(np.int64)


# Paley 9 is the 3 x 3 rook's graph: cells in one row or one column.
_ROOK_3X3 = np.array([[int((a // 3 == b // 3) != (a % 3 == b % 3)) for b in range(9)] for a in range(9)])
_SRGS = [ek.paley(5).data, _ROOK_3X3, ek.paley(13).data, _complete_multipartite([3, 3, 3])]


@st.composite
def small_graphs(draw) -> np.ndarray:
    """Adjacency matrices of K1, K2, empty and complete graphs, C5, Paley
    5/9/13, complete multipartite graphs, random graphs, circulant graphs
    (regular, and strongly regular only now and then) and SRGs with one
    edge flipped, with their vertices relabelled."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        adj = draw(st.sampled_from(_SRGS + [cycle_graph(5).data]))
    elif kind == 1:  # K1, K2, empty or complete
        v = draw(st.integers(1, 9))
        adj = complete_graph(v).data if draw(st.booleans()) else empty_graph(v).data
    elif kind == 2:
        adj = _complete_multipartite(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    elif kind == 3:
        v = draw(st.integers(1, 9))
        adj = np.zeros((v, v), dtype=np.int64)
        upper = np.triu_indices(v, 1)
        adj[upper] = draw(st.lists(st.booleans(), min_size=len(upper[0]), max_size=len(upper[0])))
        adj = adj + adj.T
    elif kind == 4:  # i ~ j when i - j or j - i lies in the connection set
        v = draw(st.integers(1, 13))
        steps = draw(st.sets(st.integers(1, max(1, v // 2))))
        gap = np.subtract.outer(np.arange(v), np.arange(v)) % v
        adj = (np.isin(gap, list(steps)) | np.isin(-gap % v, list(steps))).astype(np.int64)
        np.fill_diagonal(adj, 0)
    else:
        adj = draw(st.sampled_from(_SRGS)).copy()
        i, j = draw(st.lists(st.integers(0, adj.shape[0] - 1), min_size=2, max_size=2, unique=True))
        adj[i, j] = adj[j, i] = 1 - adj[i, j]
    order = draw(st.permutations(range(adj.shape[0])))
    return adj[np.ix_(order, order)]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(adj=small_graphs())
def test_verify_srg_matches_pure_python_path_counts(adj):
    want = _verify_srg_by_hand(adj.tolist())
    try:
        p = ek.verify_srg(AdjacencyMatrix(adj))
    except (NotRegular, NotStronglyRegular) as exc:
        assert (type(exc), str(exc), exc.witness) == want
    else:
        assert (p.v, p.k, p.lam, p.mu, p.lam_vacuous, p.mu_vacuous) == want


def test_verify_srg_refuses_graphs_beyond_exact_float32_counts(monkeypatch):
    monkeypatch.setattr(ek.graphs, "_FLOAT32_MAX_V", 4)
    assert ek.verify_srg(cycle_graph(4)) == SrgParams(4, 2, 0, 2)
    with pytest.raises(ValueError, match="exact only"):
        ek.verify_srg(cycle_graph(5))


# verify_srg packs two path counts into one float32 for v <= 2048 and squares
# A with one syrk above that. The next two tests run every small graph on both
# paths: at the default bound (packed) and with the bound lowered to 0 (syrk).
_PATHS = pytest.mark.parametrize("packed_max_v", [ek.graphs._PACKED_MAX_V, 0], ids=["packed", "syrk"])


@_PATHS
def test_packed_path_matches_pure_python_path_counts(monkeypatch, packed_max_v):
    monkeypatch.setattr(ek.graphs, "_PACKED_MAX_V", packed_max_v)
    test_verify_srg_matches_pure_python_path_counts()


@_PATHS
@pytest.mark.parametrize("graph, error, message, witness", _NON_SRG_CASES, ids=_NON_SRG_IDS)
def test_packed_path_keeps_non_srg_message_and_witness(
    monkeypatch, packed_max_v, graph, error, message, witness
):
    monkeypatch.setattr(ek.graphs, "_PACKED_MAX_V", packed_max_v)
    test_non_srg_message_and_witness_are_exact(graph, error, message, witness)


def _matching(v: int) -> np.ndarray:
    """The perfect matching 0-1, 2-3, ... on an even v (k = 1)."""
    return np.kron(np.eye(v // 2, dtype=np.int8), np.array([[0, 1], [1, 0]], np.int8))


@pytest.mark.parametrize("v", [2, 3, 255, 256, 2047, 2048])
def test_packed_square_is_exact(v):
    # A perfect matching (k = 1) and its complement (k = v - 2, up to 2046,
    # the largest count of a graph that reaches the path counts) bound the
    # digits; the random graphs give each row counts unlike its neighbours',
    # so a decode one row or one bit off fails.
    rng = np.random.default_rng(v)
    upper = np.triu(rng.integers(0, 2, (v, v), dtype=np.int8), 1)
    graphs = [upper + upper.T]
    if v % 2 == 0:
        graphs += [_matching(v), ek.complement(AdjacencyMatrix._valid(_matching(v)))._entries]
    for m in graphs:
        a = m.astype(np.float64)
        want = (a @ a).astype(np.int64)  # exact: float64 holds every count
        assert np.array_equal(ek.graphs._square_less(m.astype(np.float32), 0), want)


def _cliques(count: int, size: int) -> AdjacencyMatrix:
    """count disjoint copies of K_size: lambda = size - 2, mu = 0."""
    return ek.complement(AdjacencyMatrix(_complete_multipartite([size] * count)))


@pytest.mark.parametrize("build, params", [
    (lambda: ek.paley(2029), SrgParams(2029, 1014, 506, 507)),
    (lambda: _cliques(2, 1024), SrgParams(2048, 1023, 1022, 0)),
    (lambda: ek.complement(_cliques(2, 1024)), SrgParams(2048, 1024, 0, 1024)),
], ids=["paley2029", "2K1024", "2K1024-complement"])
def test_packed_path_accepts_at_its_largest_v(build, params):
    # lambda - mu is -1, 1022 and -1024, and the counts reach k = 1024.
    assert ek.verify_srg(build()) == params


def test_packed_path_refusal_reads_as_the_syrk_paths(monkeypatch):
    # 4K512 with edges (0,1), (512,513) switched for (0,512), (1,513).
    switched = flipped(_cliques(4, 512), (0, 1), (512, 513), (0, 512), (1, 513))
    refusals = []
    for packed_max_v in (2048, 0):
        monkeypatch.setattr(ek.graphs, "_PACKED_MAX_V", packed_max_v)
        with pytest.raises(NotStronglyRegular) as info:
            ek.verify_srg(switched)
        refusals.append((str(info.value), info.value.witness))
    assert refusals[0] == refusals[1] == (
        "adjacent pair (0,512) has 0 common neighbors, but pair (0,2) has 509", (0, 512)
    )


@pytest.mark.parametrize("build, params", [
    (lambda: _cliques(3, 683), SrgParams(2049, 682, 681, 0)),
], ids=["3K683"])
def test_syrk_path_accepts_outside_the_packed_range(build, params):
    assert ek.verify_srg(build()) == params


@pytest.mark.parametrize("build", [
    lambda: ek.paley(13),
    lambda: flipped(ek.paley(13), *PALEY_13_SWITCHED),
    lambda: _cliques(3, 683),
    lambda: flipped(_cliques(3, 683), (0, 1), (683, 684), (0, 683), (1, 684)),
], ids=["paley13", "paley13-switch", "3K683", "3K683-switch"])
def test_verify_srg_makes_one_square_a_call(monkeypatch, build):
    graph, squares, square = build(), [], ek.graphs._square_less
    monkeypatch.setattr(ek.graphs, "_square_less", lambda f, c: squares.append(c) or square(f, c))
    try:
        ek.verify_srg(graph)
    except NotStronglyRegular:
        pass
    assert len(squares) == 1


def test_verify_srg_holds_8_bytes_an_entry_beyond_its_input():
    # int8 A (the input), float32 A (D is formed in its place), and the
    # float32 packed A and its product of half that size each. The packed A
    # is freed before the product's int32 copy, and the float product before
    # the high digits are shifted out, so each takes a freed array's place.
    a = ek.paley(2029)
    tracemalloc.start()
    try:
        ek.verify_srg(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * a.v**2


def test_paley_1009_and_complement_params_are_exact():
    a = ek.paley(1009)
    assert ek.verify_srg(a) == SrgParams(1009, 504, 251, 252)
    assert ek.verify_srg(ek.complement(a)) == SrgParams(1009, 504, 251, 252)


def test_vacuous_classes():
    empty = ek.verify_srg(empty_graph(4))
    assert empty.k == 0 and empty.lam_vacuous and not empty.mu_vacuous
    full = ek.verify_srg(complete_graph(4))
    assert full.k == 3 and full.lam == 2
    assert full.mu_vacuous and not full.lam_vacuous
    single = ek.verify_srg(empty_graph(1))
    assert single.lam_vacuous and single.mu_vacuous


# -------------------------------------------------------- parameter relation


@pytest.mark.parametrize("fields, message", [
    ((0, 0, 0, 0), "v=0 must be positive"),
    ((5, 5, 0, 0), "degree k=5 outside 0..v-1=4"),
    ((5, 2, -1, 1), "lambda=-1 negative"),
    ((5, 2, 0, -1), "mu=-1 negative"),
], ids=["v", "k", "lambda", "mu"])
def test_srg_params_refuse_a_field_out_of_range(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SrgParams(*fields)


@pytest.mark.parametrize("other", [
    SrgParams(6, 2, 0, 1),
    SrgParams(5, 1, 0, 1),
    SrgParams(5, 2, 1, 1),
    SrgParams(5, 2, 0, 2),
    (5, 2, 0, 1),
], ids=["v", "k", "lambda", "mu", "tuple"])
def test_srg_params_differ_in_each_compared_field(other):
    assert SrgParams(5, 2, 0, 1) != other
    assert other != SrgParams(5, 2, 0, 1)


@pytest.mark.parametrize("one, other", [
    (SrgParams(6, 5, 4, 6), SrgParams(6, 5, 4, 0)),
    (SrgParams(6, 0, -6, 0), SrgParams(6, 0, 0, 0)),
], ids=["mu-of-complete", "lambda-of-empty"])
def test_srg_params_equality_ignores_a_vacuous_value(one, other):
    assert one == other
    assert other == one


@pytest.mark.parametrize("flag", ["lam_vacuous", "mu_vacuous"])
def test_srg_params_take_no_vacuous_flag(flag):
    # The flags are read from k; none can be passed that contradicts it.
    with pytest.raises(TypeError, match=flag):
        SrgParams(5, 2, 0, 1, **{flag: True})
    with pytest.raises(TypeError):
        SrgParams(5, 2, 0, 1, False, False)


@pytest.mark.parametrize("v", [1, 2, 5, 6])
def test_vacuous_flags_are_read_from_k(v, srg_15_8):
    # On the outputs of every producer: k = 0 makes lambda vacuous and
    # k = v - 1 makes mu vacuous, and nothing else does.
    produced = [
        ek.verify_srg(empty_graph(v)),
        ek.verify_srg(complete_graph(v)),
        ek.verify_srg(srg_15_8),
        ek.complement_params(ek.verify_srg(empty_graph(v))),
        ek.complement_params(ek.verify_srg(complete_graph(v))),
        ek.complement_params(SrgParams(5, 2, 0, 1)),
        ek.etf_params_to_srg_params(ek.EtfShape(v, v + 1)),
        ek.etf_params_to_srg_params(ek.EtfShape(1, v + 1)),
        ek.etf_params_to_srg_params(ek.EtfShape(6, 16)),
    ]
    for p in produced:
        assert (p.lam_vacuous, p.mu_vacuous) == (p.k == 0, p.k == p.v - 1), p
    assert [p.k for p in produced[:2]] == [0, v - 1]


def test_parameter_relation_examples():
    assert ek.check_parameter_relation(SrgParams(27, 16, 10, 8))
    assert ek.check_parameter_relation(SrgParams(5, 2, 0, 1))
    assert not ek.check_parameter_relation(SrgParams(6, 3, 0, 1))


def test_relation_holds_for_verified_graphs(srg_15_8, srg_27_16):
    for graph in (cycle_graph(5), ek.paley(13), ek.paley(17), srg_15_8, srg_27_16):
        params = ek.verify_srg(graph)
        assert not params.lam_vacuous and not params.mu_vacuous
        assert ek.check_parameter_relation(params)


def test_regularity_row_sums(srg_15_8):
    for graph in (cycle_graph(5), ek.paley(13), srg_15_8):
        params = ek.verify_srg(graph)
        assert np.all(graph.data.sum(axis=1) == params.k)


# ---------------------------------------------------------------- spectrum


def test_spectrum_15_8_4_4():
    spec = ek.spectrum(SrgParams(15, 8, 4, 4))
    assert spec.gamma_plus == pytest.approx(2.0, abs=0)
    assert spec.gamma_minus == pytest.approx(-2.0, abs=0)
    assert (spec.mult_plus, spec.mult_minus) == (5, 9)
    assert spec.v == 15


def test_spectrum_27_16_10_8():
    spec = ek.spectrum(SrgParams(27, 16, 10, 8))
    assert (spec.gamma_plus, spec.gamma_minus) == (4.0, -2.0)
    assert (spec.mult_plus, spec.mult_minus) == (6, 20)
    assert spec.k + spec.mult_plus * 4.0 + spec.mult_minus * -2.0 == 0.0


def test_spectrum_five_cycle():
    spec = ek.spectrum(SrgParams(5, 2, 0, 1))
    golden = (-1.0 + math.sqrt(5.0)) / 2.0
    assert spec.gamma_plus == pytest.approx(golden, abs=1e-15)
    assert spec.gamma_minus == pytest.approx(-(1.0 + math.sqrt(5.0)) / 2.0, abs=1e-15)
    assert (spec.mult_plus, spec.mult_minus) == (2, 2)


def test_spectrum_degenerate_discriminant():
    with pytest.raises(DegenerateDiscriminant):
        ek.spectrum(ek.verify_srg(empty_graph(4)))


def test_spectrum_non_integral_multiplicity():
    with pytest.raises(NonIntegralMultiplicity):
        ek.spectrum(SrgParams(16, 6, 3, 2))


@pytest.mark.parametrize("q", [104089, 165049, 165293, 165349])
def test_spectrum_of_large_paley_parameters(q):
    # The float trace of these spectra is about -2e-9, far below the size
    # of its terms (about q^1.5 / 2), so it is zero up to rounding.
    spec = ek.spectrum(SrgParams(q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4))
    assert (spec.mult_plus, spec.mult_minus) == ((q - 1) // 2, (q - 1) // 2)


def test_paley_parameters_past_the_floats_have_a_spectrum():
    # D = v = 10^400 + 1 passes the float range; its root, about 1e200, does not.
    v = 10**400 + 1
    spec = ek.spectrum(SrgParams(v, (v - 1) // 2, (v - 5) // 4, (v - 1) // 4))
    assert (spec.gamma_plus, spec.gamma_minus) == (5e199, -5e199)
    assert (spec.mult_plus, spec.mult_minus) == ((v - 1) // 2, (v - 1) // 2)


def test_a_root_past_the_floats_is_refused_naming_d():
    v = 10**700 + 1
    k, lam, mu = (v - 1) // 2, (v - 5) // 4, (v - 1) // 4
    message = f"sqrt(D) overflows a float for D = ({lam}-{mu})^2 + 4*({k}-{mu})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ek.spectrum(SrgParams(v, k, lam, mu))


@pytest.mark.parametrize("v, lam, mu", [
    # num = 10^400 + 3 is no multiple of sqrt(D) = 3, and num / 3 overflows.
    (10**400, 1, 0),
    # Each term fits a float, but (v - 1) - num/sqrt(5) rounds to inf.
    (15 * 10**307, 0, 1),
], ids=["overflow", "inf"])
def test_a_multiplicity_past_the_floats_is_named_by_its_closed_form(v, lam, mu):
    form = f"({v} - 1 - (2*2 + ({v}-1)*({lam}-{mu}))/sqrt(({lam}-{mu})^2 + 4*(2-{mu})))/2"
    with pytest.raises(
        NonIntegralMultiplicity, match=f"^multiplicity {re.escape(form)} is not an integer$"
    ):
        ek.spectrum(SrgParams(v, 2, lam, mu))


@pytest.mark.parametrize("fields, message", [
    ((2, 1.0, -1.0, 1, 1), "trace 2.0 != 0"),
    ((0, 1.0, -1.0, 1, 2), "trace -1.0 != 0"),
    # Paley(104089)'s spectrum with gamma_plus 1e-6 too large: a trace of
    # 0.052 is 3e-9 of its terms, far above rounding.
    ((52044, (-1 + math.sqrt(104089)) / 2 + 1e-6, (-1 - math.sqrt(104089)) / 2, 52044, 52044),
     r"trace 0\.0520439"),
    ((1, math.inf, -math.inf, 1, 1), "trace nan != 0"),
    ((1, math.inf, 0.0, 1, 1), "trace inf != 0"),
    ((10**400, 1.0, -1.0, 1, 1), r"trace k \+ f gamma_plus \+ g gamma_minus overflows a float$"),
])
def test_spectrum_record_rejects_a_nonzero_trace(fields, message):
    with pytest.raises(ValueError, match=message):
        SrgSpectrum(*fields)


@pytest.mark.parametrize("mults", [(-1, 2), (2, -1)], ids=["plus", "minus"])
def test_spectrum_record_rejects_a_negative_multiplicity(mults):
    with pytest.raises(ValueError, match="^multiplicities must be nonnegative$"):
        SrgSpectrum(2, 1.0, -1.0, *mults)


@pytest.mark.parametrize("params", [
    (659, 329, 196, 132),
    (659, 329, 131, 197),
    (1453, 726, 571, 154),
    (1453, 726, 153, 572),
    (1464, 1078, 862, 602),
])
def test_near_integral_multiplicity_is_rejected(params):
    # The multiplicities lie within 1e-6 of integers, but D is no square.
    with pytest.raises(NonIntegralMultiplicity):
        ek.spectrum(SrgParams(*params))


def _multiplicities_reference(v: int, k: int, lam: int, mu: int):
    """(f, g) with f + g = v - 1 and k + f theta + g tau = 0, where theta > tau
    are the roots of x^2 - (lam - mu) x - (k - mu); None if there is none.

    The trace is zero exactly when (f - g) sqrt(D) = -(2k + (v - 1)(lam - mu)),
    decided here by squaring, with signs, over every split of v - 1.
    """
    d = lam - mu
    disc, num = d * d + 4 * (k - mu), 2 * k + (v - 1) * d
    for f in range(v):
        g = v - 1 - f
        if (f - g) * num <= 0 and (f - g) ** 2 * disc == num * num:
            return f, g
    return None


def test_multiplicities_match_the_exact_reference():
    # Every (v, k, lambda, mu) with v < 120 that satisfies the parameter
    # relation and has a positive discriminant.
    checked = 0
    for v in range(3, 120):
        for k in range(1, v - 1):
            for lam in range(k):
                mu, rem = divmod(k * (k - lam - 1), v - k - 1)
                if rem or mu < 1 or (lam - mu) ** 2 + 4 * (k - mu) <= 0:
                    continue
                want = _multiplicities_reference(v, k, lam, mu)
                try:
                    spec = ek.spectrum(SrgParams(v, k, lam, mu))
                    got = (spec.mult_plus, spec.mult_minus)
                except NonIntegralMultiplicity:
                    got = None
                assert got == want, (v, k, lam, mu)
                checked += 1
    assert checked > 1000


def test_spectrum_matches_numeric_eigenvalues(srg_15_8, srg_27_16):
    for graph in (cycle_graph(5), ek.paley(13), ek.paley(17), srg_15_8, srg_27_16):
        params = ek.verify_srg(graph)
        spec = ek.spectrum(params)
        closed = np.sort(
            np.concatenate(
                [
                    [float(params.k)],
                    np.full(spec.mult_plus, spec.gamma_plus),
                    np.full(spec.mult_minus, spec.gamma_minus),
                ]
            )
        )[::-1]
        numeric = sym_eigen(SymMatrix(graph.data.astype(float))).values
        reference = np.sort(np.linalg.eigvalsh(graph.data.astype(float)))[::-1]
        assert np.max(np.abs(closed - numeric)) < 1e-8
        assert np.max(np.abs(closed - reference)) < 1e-8
        trace = params.k + spec.mult_plus * spec.gamma_plus + spec.mult_minus * spec.gamma_minus
        assert abs(trace) < 1e-9


# -------------------------------------------------------------- complement


def test_complement_of_empty_is_complete():
    assert ek.complement(empty_graph(5)) == complete_graph(5)


def test_complement_is_involution(srg_15_8):
    for graph in (cycle_graph(5), ek.paley(13), srg_15_8):
        assert ek.complement(ek.complement(graph)) == graph


def test_five_cycle_complement_is_self_parametric():
    comp = ek.complement(cycle_graph(5))
    assert ek.verify_srg(comp) == SrgParams(5, 2, 0, 1)
    assert brute_srg_params(comp.data) == (5, 2, 0, 1)


def test_complement_params_examples():
    assert ek.complement_params(SrgParams(27, 16, 10, 8)) == SrgParams(27, 10, 1, 5)
    assert ek.complement_params(SrgParams(5, 2, 0, 1)) == SrgParams(5, 2, 0, 1)


def test_complement_params_of_empty_graph():
    empty = ek.verify_srg(empty_graph(6))
    comp = ek.complement_params(empty)
    assert (comp.v, comp.k, comp.lam, comp.mu) == (6, 5, 4, 6)
    assert comp.mu_vacuous and not comp.lam_vacuous
    # Equality ignores the stored mu, which is vacuous, and so does spectrum.
    assert comp == ek.verify_srg(complete_graph(6))
    assert ek.spectrum(comp) == ek.spectrum(ek.verify_srg(complete_graph(6)))


def test_complement_params_negative():
    with pytest.raises(NegativeParameter):
        ek.complement_params(SrgParams(6, 3, 0, 1))


def test_complement_params_matches_verify(srg_15_8, srg_27_16):
    graphs = [cycle_graph(5), ek.paley(13), ek.paley(17), srg_15_8, srg_27_16,
              empty_graph(4), complete_graph(4)]
    for graph in graphs:
        direct = ek.verify_srg(ek.complement(graph))
        derived = ek.complement_params(ek.verify_srg(graph))
        assert direct == derived


def _related_params(max_v: int):
    """Every SrgParams with v < max_v and lambda, mu < v that satisfies
    k(k - lambda - 1) = (v - k - 1) mu; lambda is vacuous for the empty
    class (k = 0) and mu for the complete one (k = v - 1)."""
    for v in range(1, max_v):
        for k in range(v):
            for lam in range(v):
                paths, rest = k * (k - lam - 1), v - k - 1
                if rest == 0:
                    mus = range(v) if paths == 0 else ()
                else:
                    mu, rem = divmod(paths, rest)
                    mus = (mu,) if rem == 0 and 0 <= mu < v else ()
                for mu in mus:
                    yield SrgParams(v, k, lam, mu)


def test_complement_params_twice_is_the_identity_on_related_params():
    defined = 0
    for p in _related_params(100):
        assert ek.check_parameter_relation(p)
        try:
            comp = ek.complement_params(p)
        except NegativeParameter:
            continue
        assert dataclasses.astuple(ek.complement_params(comp)) == dataclasses.astuple(p)
        defined += 1
    assert defined > 1000


# --------------------------------------------------------------- deviation


def test_deviation_values():
    assert ek.deviation(SrgParams(27, 16, 10, 8)) == -6
    assert ek.deviation(SrgParams(13, 6, 2, 3)) == 0
    assert SrgParams(15, 8, 4, 4).deviation == -2


def test_deviation_negates_under_complement():
    for params in (SrgParams(27, 16, 10, 8), SrgParams(15, 8, 4, 4), SrgParams(5, 2, 0, 1)):
        assert ek.deviation(ek.complement_params(params)) == -ek.deviation(params)
