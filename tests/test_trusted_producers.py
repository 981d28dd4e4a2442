"""Oracles for the producers that skip the public constructors' checks.

etfkit's own producers of `AdjacencyMatrix` and `SymMatrix` build their
arrays valid by construction and wrap them through the unchecked `_valid`.
Each test here hands such an output to the public constructor, which must
accept it and store the same array, bit for bit. `spectrum` builds its
result through the public `SrgSpectrum`, so its trace check must accept
every spectrum of a sweep of parameters, and a rebuilt one comes back
equal. The graph producers keep one byte per entry, and the int64 `.data`
is built only when something reads it.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import etfkit as ek
import etfkit.cli
from etfkit.cli import (
    FileFormatError,
    _graph_from_bytes,
    _graph_from_lines,
    _load_gram_or_frame,
    read_graph,
    write_graph,
    write_matrix,
)
from etfkit.correspondence import _etf_gram_to_srg
from etfkit.errors import (
    DegenerateDiscriminant,
    EtfkitError,
    NonIntegralMultiplicity,
    SrgVerificationError,
)
from etfkit.frames import DEFAULT_TOL
from etfkit.graphs import AdjacencyMatrix, SrgSpectrum
from etfkit.linalg import SymMatrix

from helpers import labelled_graphs
from test_cli import _random_graph, graph_files


def assert_public_accepts(trusted) -> None:
    public = type(trusted)(trusted.data)
    assert not trusted.data.flags.writeable
    assert public.data.dtype == trusted.data.dtype
    assert public.data.shape == trusted.data.shape
    assert public.data.tobytes() == trusted.data.tobytes()


def _primes_1_mod_4(below: int) -> list[int]:
    return [q for q in range(5, below, 4) if all(q % d for d in range(2, math.isqrt(q) + 1))]


# ------------------------------------------------------------------- graphs


def _check_both_parsers(path: str, text: str) -> None:
    outputs = [_graph_from_bytes(text.encode())]
    try:
        outputs.append(_graph_from_lines(text.splitlines(), path))
    except (FileFormatError, MemoryError, ValueError):
        pass
    for adj in outputs:
        if adj is not None:
            assert_public_accepts(AdjacencyMatrix._valid(adj))
    try:
        graph = read_graph(path)
    except (FileFormatError, MemoryError, ValueError):
        return
    assert_public_accepts(graph)


@settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=graph_files())
def test_parsed_graphs_pass_the_public_checks(tmp_path, text):
    path = str(tmp_path / "g.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    _check_both_parsers(path, text)


@pytest.mark.parametrize("text", [
    "1\n",
    "2\n",
    "2\n1 2\n",
    "5\n1 2\n2 3\n3 4\n4 5\n1 5\n",
    "5\n\t\n1\t2\n\n 2  3 \n3 4\n4 5\n1 5",
    "5\n" + "1".zfill(18) + " 2\n",
    "5\n" + "1".zfill(19) + " 2\n",
    "5\n+1 2\n",
    "5\n1 2\r\n2 3\r\n",
    "3\n2 1\n",
    "3\n1 2\n1 2\n",
    "3\n1 4\n",
    "4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n",
])
def test_hand_made_graph_files_pass_the_public_checks(tmp_path, text):
    path = str(tmp_path / "g.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    _check_both_parsers(path, text)


@pytest.mark.parametrize("graph", [
    AdjacencyMatrix(np.zeros((1, 1), dtype=int)),
    AdjacencyMatrix(np.zeros((4, 4), dtype=int)),
    AdjacencyMatrix(1 - np.eye(4, dtype=int)),
    ek.paley(13),
    ek.paley(101),
    *(_random_graph(v, v) for v in (2, 7, 50)),
], ids=lambda g: f"v{g.v}-e{int(g.data.sum()) // 2}")
def test_complement_passes_the_public_checks(graph):
    comp = ek.complement(graph)
    assert_public_accepts(comp)
    assert_public_accepts(ek.complement(comp))


def test_paley_passes_the_public_checks_and_matches_the_difference_formula():
    primes = _primes_1_mod_4(1100)
    assert primes[:4] == [5, 13, 17, 29] and primes[-1] == 1097
    for q in primes:
        graph = ek.paley(q)
        assert_public_accepts(graph)
        is_residue = np.zeros(q, dtype=np.int64)
        is_residue[[x * x % q for x in range(1, q)]] = 1
        idx = np.arange(q)
        assert graph == AdjacencyMatrix(is_residue[(idx[np.newaxis, :] - idx[:, np.newaxis]) % q])


def test_trusted_graphs_keep_one_byte_and_widen_to_the_public_data_once(tmp_path):
    path = str(tmp_path / "g.txt")
    write_graph(path, ek.paley(29))
    for name, graph in {
        "parsed": read_graph(path),
        "paley": ek.paley(29),
        "complement": ek.complement(ek.paley(29)),
        "complement-of-parsed": ek.complement(read_graph(path)),
        "conversion": ek.etf_to_srg(ek.fixture_6x16())[0],
    }.items():
        assert graph._entries.itemsize == 1, name
        assert not graph._entries.flags.writeable, name
        assert graph._data is None, name  # nothing has read .data yet
        public = AdjacencyMatrix(graph._entries)
        assert graph == public, name
        assert graph.data.dtype == np.int64 and not graph.data.flags.writeable, name
        assert graph.data.tobytes() == public.data.tobytes(), name
        assert graph.data is graph.data, name  # widened once, then cached


def test_public_graphs_keep_one_byte_and_widen_to_data_only_when_read():
    users = np.asarray(ek.paley(29).data, dtype=np.int64)
    graph = AdjacencyMatrix(users)
    assert graph._entries.dtype == np.int8 and not graph._entries.flags.writeable
    for use in (ek.verify_srg, ek.complement, ek.srg_to_etf_gram):
        use(graph)
    assert graph._data is None  # etfkit reads the one-byte entries
    assert graph.data.dtype == np.int64 and not graph.data.flags.writeable
    assert graph.data.tobytes() == users.tobytes()
    assert graph.data is graph.data  # widened once, then cached


@pytest.mark.parametrize("argv", [
    ["verify-srg", "{g}"],
    ["verify-srg", "--json", "{g}"],
    ["spectrum", "{g}"],
    ["complement", "{g}", "-o", "{c}"],
])
def test_graph_commands_never_build_the_int64_copy(tmp_path, monkeypatch, capsys, argv):
    graph, comp = str(tmp_path / "g.txt"), str(tmp_path / "c.txt")
    write_graph(graph, ek.paley(101))
    seen = []

    def keep(function):
        def kept(*args):
            seen.append(function(*args))
            return seen[-1]
        return kept

    monkeypatch.setattr(etfkit.cli, "read_graph", keep(read_graph))
    monkeypatch.setattr(etfkit.cli, "complement", keep(ek.complement))
    assert etfkit.cli.run([arg.format(g=graph, c=comp) for arg in argv]) == 0
    assert len(seen) == (2 if argv[0] == "complement" else 1)
    for adjacency in seen:
        assert adjacency._entries.itemsize == 1
        assert adjacency._data is None


def test_etf_to_srg_passes_the_public_checks_on_every_graph_up_to_six_vertices():
    converted = 0
    for v in range(1, 7):
        n = v + 1
        adj = labelled_graphs(v)
        s = np.ones((adj.shape[0], n, n), dtype=np.int64)
        s[:, 1:, 1:] = 2 * adj - 1
        s[:, np.arange(n), np.arange(n)] = 0
        p = (s @ s) * s
        holds = np.all(p[:, ~np.eye(n, dtype=bool)] == p[:, 0, 1, np.newaxis], axis=1)
        for a in adj[holds]:  # the graphs of real ETFs, by the Seidel identity
            for convert in (ek.srg_to_etf_gram, ek.srg_to_etf_gram_minus):
                g = convert(AdjacencyMatrix(a))[0]
                graph, _ = _etf_gram_to_srg(g, ek.verify_etf_gram(g))
                assert_public_accepts(graph)
                converted += 1
    assert converted > 2 * 6


# ------------------------------------------------------------------ spectra


def _spectrum_params():
    """The parameters of every regular graph on at most 5 vertices, of Paley
    q <= 401, of every eligible (v, k) with v < 200, and of a conference
    graph on 10^400 + 1 vertices, whose trace's terms no float holds."""
    yield ek.SrgParams(10**400 + 1, 10**400 // 2, (10**400 - 4) // 4, 10**400 // 4)
    for v in range(1, 6):
        for a in labelled_graphs(v):
            try:
                yield ek.verify_srg(AdjacencyMatrix(a))
            except SrgVerificationError:
                pass
    for q in _primes_1_mod_4(402):
        yield ek.verify_srg(ek.paley(q))
    for v in range(1, 200):
        for k in range(v):
            try:
                yield ek.etf_params_to_srg_params(ek.srg_params_to_etf_params(v, k))
            except EtfkitError:
                pass


def test_spectra_pass_the_public_trace_check():
    spectra = 0
    for p in _spectrum_params():
        try:
            spec = ek.spectrum(p)
        except (DegenerateDiscriminant, NonIntegralMultiplicity):
            continue
        assert SrgSpectrum(*dataclasses.astuple(spec)) == spec
        spectra += 1
    assert spectra > 300


# -------------------------------------------------------------------- grams


def _frames() -> list[np.ndarray]:
    frames = [ek.fixture_6x16(), ek.steiner_etf(ek.fano_plane()), ek.steiner_etf(ek.pairs_design(4))]
    for q in _primes_1_mod_4(102):
        frames.append(ek.synthesize_from_gram(ek.srg_to_etf_gram(ek.paley(q))[0]))
    return frames


@pytest.mark.parametrize("phi", _frames(), ids=lambda p: f"{p.shape[0]}x{p.shape[1]}")
def test_frame_grams_pass_the_public_checks(phi):
    g = ek.gram(phi)  # SymMatrix.symmetrized of a product
    assert_public_accepts(g)
    summary = ek.verify_etf_gram(g)
    assert_public_accepts(ek.naimark_complement_gram(g, summary))
    assert_public_accepts(ek.sign_normalize(g, summary)[0])
    graph, _ = ek.etf_to_srg(phi)
    assert_public_accepts(graph)
    for convert in (ek.srg_to_etf_gram, ek.srg_to_etf_gram_minus):
        assert_public_accepts(convert(graph)[0])  # _assemble_gram


def test_grams_of_fortran_strided_and_reversed_frames_pass_the_public_checks():
    phi = ek.synthesize_from_gram(ek.srg_to_etf_gram(ek.paley(101))[0])
    wide = np.zeros((2 * phi.shape[0], 2 * phi.shape[1]))
    wide[::2, ::2] = phi
    for layout in (phi, np.asfortranarray(phi), wide[::2, ::2], phi[::-1, ::-1], 1e150 * phi):
        g = ek.gram(layout)
        assert_public_accepts(g)
        # the one averaging SymMatrix.symmetrized does, at no asymmetry bound
        assert g.data.tobytes() == SymMatrix.symmetrized(layout.T @ layout, np.inf).data.tobytes()


def test_paley_grams_pass_the_public_checks():
    for q in _primes_1_mod_4(102):
        for convert in (ek.srg_to_etf_gram, ek.srg_to_etf_gram_minus):
            assert_public_accepts(convert(ek.paley(q))[0])


@pytest.mark.parametrize("a", [
    np.array([[1.0, 0.1 + 1e-12], [0.1, 1.0]]),
    np.array([[0.0, -0.0], [-0.0, -0.0]]),
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
    np.array([[1.0, np.inf, -np.inf], [np.inf, 1.0, 5e-324], [-np.inf, 5e-324, 1.0]]),
    np.array([[1e308, 1e308], [1e308, -1e308]]),
    np.random.default_rng(3).normal(size=(7, 7)) * 1e-12 + np.eye(7),
], ids=["rounding", "signed-zeros", "nan", "inf", "huge", "noise"])
def test_symmetrized_passes_the_public_checks(a):
    assert_public_accepts(SymMatrix.symmetrized(a))


def _nudged(a: np.ndarray, i: int, j: int, by: float) -> np.ndarray:
    a = a.copy()
    a[i, j] += by
    return a


@pytest.mark.parametrize("a", [
    _nudged(ek.srg_to_etf_gram(ek.paley(13))[0].data, 0, 1, 1e-11),
    np.array([[1.0, -0.0], [0.0, 1.0]]),
    np.array([[1.0, 5e-324], [0.0, 1.0]]),
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
    np.array([[1.0, np.inf], [np.inf, 1.0]]),
], ids=["rounding", "signed-zeros", "subnormal", "nan", "inf"])
def test_gram_files_pass_the_public_checks(tmp_path, monkeypatch, a):
    # The routing test decides symmetry, so the Gram branch averages with no
    # second check: the same bits as SymMatrix.symmetrized at its atol.
    monkeypatch.setattr(etfkit.cli, "verify_etf_gram", lambda g, tol: None)
    path = str(tmp_path / "g.txt")
    write_matrix(path, a)
    g, phi, _ = _load_gram_or_frame(path, DEFAULT_TOL)
    assert phi is None
    assert_public_accepts(g)
    assert g.data.tobytes() == SymMatrix.symmetrized(a, atol=1e-10).data.tobytes()
