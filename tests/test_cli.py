import json
import os
import subprocess
import sys

import numpy as np
import pytest

import etfkit as ek
import etfkit.cli
import etfkit.frames
from etfkit.cli import (
    FileFormatError,
    read_graph,
    read_matrix,
    run,
    write_graph,
    write_matrix,
)

from helpers import record_to_dict


def invoke(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- formats


def test_matrix_round_trip_is_byte_identical(tmp_path):
    path = tmp_path / "m.txt"
    rng = np.random.default_rng(4)
    write_matrix(path, rng.normal(size=(3, 5)))
    first = path.read_bytes()
    write_matrix(path, read_matrix(path))
    assert path.read_bytes() == first


def test_graph_round_trip_is_byte_identical(tmp_path):
    path = tmp_path / "g.txt"
    write_graph(path, ek.paley(13))
    first = path.read_bytes()
    write_graph(path, read_graph(path))
    assert path.read_bytes() == first


def test_five_cycle_graph_file_parses_to_pentagon(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text("5\n1 2\n2 3\n3 4\n4 5\n1 5\n")
    assert read_graph(path) == ek.paley(5)


def test_matrix_parse_error_names_the_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 0 0\n")
    with pytest.raises(FileFormatError, match="line 2"):
        read_matrix(path)


def test_graph_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n2 1\n")
    with pytest.raises(FileFormatError, match="line 2"):
        read_graph(path)
    path.write_text("3\n1 2\n1 2\n")
    with pytest.raises(FileFormatError, match="duplicate"):
        read_graph(path)
    path.write_text("3\n1 4\n")
    with pytest.raises(FileFormatError, match="line 2"):
        read_graph(path)


# -------------------------------------------------------------- subcommands


def test_welch_prints_one_third(capsys):
    code, out, _ = invoke(capsys, "welch", "7", "28")
    assert code == 0
    assert out == "0.3333333333333333\n"


def test_params_srg_27_16(capsys):
    code, out, _ = invoke(capsys, "params", "srg", "27", "16")
    assert code == 0
    record = record_to_dict(out)
    assert record["m"] == "7"
    assert record["n"] == "28"
    assert record["eligible"] == "true"
    assert record["lambda"] == "10"
    assert record["mu"] == "8"
    assert list(record) == [
        "v", "k", "lambda", "mu", "deviation", "eligible", "m", "n", "alpha", "beta",
    ]


def test_params_etf_then_srg_reproduces_shape(capsys):
    code, out, _ = invoke(capsys, "params", "etf", "7", "28")
    assert code == 0
    record = record_to_dict(out)
    assert (record["v"], record["k"]) == ("27", "16")
    code, out, _ = invoke(capsys, "params", "srg", record["v"], record["k"])
    assert code == 0
    back = record_to_dict(out)
    assert (back["m"], back["n"]) == ("7", "28")


def test_params_json_output(capsys):
    code, out, _ = invoke(capsys, "params", "etf", "6", "16", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["v"] == 15 and record["k"] == 8
    assert record["eligible"] is True
    assert record["alpha"] == pytest.approx(8.0 / 3.0)


def test_params_rejects_infeasible_shapes(capsys):
    code, _, err = invoke(capsys, "params", "srg", "10", "3")
    assert code == 1
    assert "error:" in err


def test_paley_pipeline(capsys, tmp_path):
    graph = tmp_path / "g.txt"
    frame = tmp_path / "e.txt"
    assert invoke(capsys, "generate", "paley", "13", "-o", str(graph))[0] == 0
    assert invoke(capsys, "srg-to-etf", str(graph), "-o", str(frame))[0] == 0
    code, out, _ = invoke(capsys, "verify-etf", str(frame))
    assert code == 0
    record = record_to_dict(out)
    assert record["m"] == "7"
    assert record["n"] == "14"
    assert float(record["beta"]) == pytest.approx(0.2773501, abs=1e-6)


def test_graph_file_round_trip_through_both_conversions(capsys, tmp_path):
    frame0 = tmp_path / "f0.txt"
    graph1 = tmp_path / "g1.txt"
    frame1 = tmp_path / "f1.txt"
    graph2 = tmp_path / "g2.txt"
    invoke(capsys, "generate", "steiner-pairs4", "-o", str(frame0))
    assert invoke(capsys, "etf-to-srg", str(frame0), "-o", str(graph1))[0] == 0
    assert invoke(capsys, "srg-to-etf", str(graph1), "-o", str(frame1))[0] == 0
    assert invoke(capsys, "etf-to-srg", str(frame1), "-o", str(graph2))[0] == 0
    assert graph1.read_bytes() == graph2.read_bytes()


def test_srg_to_etf_gram_only(capsys, tmp_path):
    graph = tmp_path / "g.txt"
    gram = tmp_path / "G.txt"
    invoke(capsys, "generate", "paley", "5", "-o", str(graph))
    code, out, _ = invoke(capsys, "srg-to-etf", str(graph), "--gram-only", "-o", str(gram))
    assert code == 0
    matrix = read_matrix(gram)
    assert matrix.shape == (6, 6)
    assert np.allclose(np.diag(matrix), 1.0)
    code, out, _ = invoke(capsys, "verify-etf", str(gram))
    assert code == 0
    assert record_to_dict(out)["m"] == "3"


def test_srg_to_etf_minus(capsys, tmp_path):
    graph = tmp_path / "g.txt"
    frame = tmp_path / "f.txt"
    invoke(capsys, "generate", "fixture6x16", "-o", str(frame))
    invoke(capsys, "etf-to-srg", str(frame), "-o", str(graph))
    code, out, _ = invoke(capsys, "srg-to-etf", str(graph), "--minus", "-o", str(frame))
    assert code == 0
    record = record_to_dict(out)
    assert record["m"] == "10"
    assert float(record["beta"]) == pytest.approx(-0.2, abs=1e-12)


def test_verify_srg_record(capsys, tmp_path):
    graph = tmp_path / "g.txt"
    invoke(capsys, "generate", "paley", "17", "-o", str(graph))
    code, out, _ = invoke(capsys, "verify-srg", str(graph))
    assert code == 0
    record = record_to_dict(out)
    assert record["v"] == "17" and record["k"] == "8"
    assert record["eligible"] == "true"
    assert record["m"] == "9"


def test_verify_srg_rejects_non_srg(capsys, tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("3\n1 2\n2 3\n")  # path on three vertices
    code, _, err = invoke(capsys, "verify-srg", str(graph))
    assert code == 1
    assert "degree" in err


def test_spectrum_subcommand(capsys, tmp_path):
    graph = tmp_path / "g.txt"
    invoke(capsys, "generate", "paley", "13", "-o", str(graph))
    code, out, _ = invoke(capsys, "spectrum", str(graph))
    assert code == 0
    record = record_to_dict(out)
    assert record["k"] == "6"
    assert record["mult_plus"] == "6" and record["mult_minus"] == "6"


def test_complement_subcommand(capsys, tmp_path):
    graph = tmp_path / "g.txt"
    comp = tmp_path / "c.txt"
    invoke(capsys, "generate", "paley", "13", "-o", str(graph))
    assert invoke(capsys, "complement", str(graph), "-o", str(comp))[0] == 0
    assert read_graph(comp) == ek.complement(ek.paley(13))


def test_naimark_subcommand(capsys, tmp_path):
    frame = tmp_path / "f.txt"
    comp = tmp_path / "n.txt"
    invoke(capsys, "generate", "fixture6x16", "-o", str(frame))
    assert invoke(capsys, "naimark", str(frame), "-o", str(comp))[0] == 0
    code, out, _ = invoke(capsys, "verify-etf", str(comp))
    assert code == 0
    record = record_to_dict(out)
    assert record["m"] == "10" and record["n"] == "16"


def test_paley_401_round_trip_is_byte_identical(capsys, tmp_path):
    graph = tmp_path / "g.txt"
    frame = tmp_path / "f.txt"
    back = tmp_path / "back.txt"
    assert invoke(capsys, "generate", "paley", "401", "-o", str(graph))[0] == 0
    assert invoke(capsys, "srg-to-etf", str(graph), "-o", str(frame))[0] == 0
    assert read_matrix(frame).shape == (201, 402)
    assert invoke(capsys, "etf-to-srg", str(frame), "-o", str(back))[0] == 0
    assert back.read_bytes() == graph.read_bytes()


def test_frame_commands_do_no_repeated_work(capsys, tmp_path, monkeypatch):
    calls = {"sym_eigen": 0, "read_matrix": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(etfkit.frames, "sym_eigen")
    count(etfkit.cli, "read_matrix")

    graph, frame, gram = (str(tmp_path / f) for f in ("g.txt", "f.txt", "G.txt"))
    out = str(tmp_path / "out.txt")
    invoke(capsys, "generate", "paley", "13", "-o", graph)
    invoke(capsys, "srg-to-etf", graph, "--gram-only", "-o", gram)
    # (argv, most sym_eigen calls, exact read_matrix calls)
    for argv, eigen_max, reads in (
        (["srg-to-etf", graph, "-o", frame], 1, 0),
        (["etf-to-srg", gram, "-o", out], 1, 1),
        (["etf-to-srg", frame, "-o", out], 0, 1),
        (["naimark", frame, "-o", out], 1, 1),
        (["verify-etf", frame], 0, 1),
    ):
        calls.update(sym_eigen=0, read_matrix=0)
        assert invoke(capsys, *argv)[0] == 0
        assert calls["sym_eigen"] <= eigen_max, argv
        assert calls["read_matrix"] == reads, argv


def test_generate_fano_then_convert(capsys, tmp_path):
    frame = tmp_path / "fano.txt"
    graph = tmp_path / "g.txt"
    assert invoke(capsys, "generate", "steiner-fano", "-o", str(frame))[0] == 0
    code, out, _ = invoke(capsys, "etf-to-srg", str(frame), "-o", str(graph))
    assert code == 0
    record = record_to_dict(out)
    assert (record["v"], record["k"]) == ("27", "16")
    assert (record["lambda"], record["mu"]) == ("10", "8")


# ------------------------------------------------------------- error paths


def test_identity_frame_conversion_fails_cleanly(capsys, tmp_path):
    frame = tmp_path / "eye.txt"
    write_matrix(frame, np.eye(4))
    graph = tmp_path / "g.txt"
    code, _, err = invoke(capsys, "etf-to-srg", str(frame), "-o", str(graph))
    assert code == 1
    assert "orthonormal" in err


def test_malformed_matrix_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 0 0\n")
    code, _, err = invoke(capsys, "verify-etf", str(bad))
    assert code == 2
    assert "line 2" in err


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = invoke(capsys, "verify-etf", str(tmp_path / "nope.txt"))
    assert code == 2


def test_infinite_gram_entry_exits_1(capsys, tmp_path):
    g = np.eye(4)
    g[0, 1] = g[1, 0] = np.inf
    path = tmp_path / "inf.txt"
    write_matrix(path, g)
    code, _, err = invoke(capsys, "verify-etf", str(path))
    assert code == 1
    assert "G(0,1)" in err


@pytest.mark.parametrize("module", ["etfkit", "etfkit.cli"])
def test_python_dash_m_missing_file_exits_2(tmp_path, module):
    src = os.path.dirname(os.path.dirname(ek.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "verify-etf", str(tmp_path / "nope.txt")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_usage_error_exits_2(capsys):
    assert run(["welch", "7"]) == 2
    capsys.readouterr()


def test_generate_paley_requires_modulus(capsys, tmp_path):
    code, _, err = invoke(capsys, "generate", "paley", "-o", str(tmp_path / "g.txt"))
    assert code == 2
    assert "paley" in err


def test_tolerance_env_override(capsys, tmp_path, monkeypatch):
    phi = ek.fixture_6x16()
    g = np.asarray(phi).T @ np.asarray(phi)
    g = 0.5 * (g + g.T)
    g[2, 3] += 1e-4
    g[3, 2] += 1e-4
    path = tmp_path / "g.txt"
    write_matrix(path, g)

    code, _, err = invoke(capsys, "verify-etf", str(path))
    assert code == 1

    monkeypatch.setenv("ETFKIT_TOL", "1e-3")
    code, out, _ = invoke(capsys, "verify-etf", str(path))
    assert code == 0

    monkeypatch.setenv("ETFKIT_TOL", "not-a-number")
    code, _, err = invoke(capsys, "verify-etf", str(path))
    assert code == 2
    assert "ETFKIT_TOL" in err
