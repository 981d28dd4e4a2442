"""Exact stdout of the CLI's records, in text and in --json.

A record is a graph half `v k lambda mu deviation eligible` followed by a
frame half `m n alpha beta`; either half may be absent. These tests pin the
bytes, not just the parsed values.
"""

import json

import pytest

from etfkit.cli import run


def invoke(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARAMS_27_16 = (
    "v = 27\nk = 16\nlambda = 10\nmu = 8\ndeviation = -6\neligible = true\n"
    "m = 7\nn = 28\nalpha = 4\nbeta = 0.3333333333333333\n",
    '{"v": 27, "k": 16, "lambda": 10, "mu": 8, "deviation": -6, '
    '"eligible": true, "m": 7, "n": 28, "alpha": 4, '
    '"beta": 0.3333333333333333}\n',
)

PARAMS_7_3 = (
    "v = 7\nk = 3\nlambda = 0.5\nmu = 1.5\ndeviation = 0\neligible = false\n"
    "m = 4\nn = 8\nalpha = 2\nbeta = 0.3779644730092272\n",
    '{"v": 7, "k": 3, "lambda": 0.5, "mu": 1.5, "deviation": 0, '
    '"eligible": false, "m": 4, "n": 8, "alpha": 2, '
    '"beta": 0.3779644730092272}\n',
)

PARAMS_4_0 = (
    "v = 4\nk = 0\nlambda = 0\nmu = 0\ndeviation = 3\neligible = true\n"
    "m = 4\nn = 5\nalpha = 1.25\nbeta = 0.25\n",
    '{"v": 4, "k": 0, "lambda": 0, "mu": 0, "deviation": 3, '
    '"eligible": true, "m": 4, "n": 5, "alpha": 1.25, "beta": 0.25}\n',
)

FANO = (
    "v = 27\nk = 16\nlambda = 10\nmu = 8\ndeviation = -6\neligible = true\n"
    "m = 7\nn = 28\nalpha = 4\nbeta = 0.3333333333333334\n",
    '{"v": 27, "k": 16, "lambda": 10, "mu": 8, "deviation": -6, '
    '"eligible": true, "m": 7, "n": 28, "alpha": 4, '
    '"beta": 0.3333333333333334}\n',
)

# verify-etf measures beta from the Gram file; verify-srg derives it from
# (m, n). The two differ in the last digits.
PALEY_13_GRAM = (
    "v = 13\nk = 6\nlambda = 2\nmu = 3\ndeviation = 0\neligible = true\n"
    "m = 7\nn = 14\nalpha = 2\nbeta = 0.27735009811261463\n",
    '{"v": 13, "k": 6, "lambda": 2, "mu": 3, "deviation": 0, '
    '"eligible": true, "m": 7, "n": 14, "alpha": 2, '
    '"beta": 0.27735009811261463}\n',
)

PALEY_13_GRAPH = (
    "v = 13\nk = 6\nlambda = 2\nmu = 3\ndeviation = 0\neligible = true\n"
    "m = 7\nn = 14\nalpha = 2\nbeta = 0.2773500981126146\n",
    '{"v": 13, "k": 6, "lambda": 2, "mu": 3, "deviation": 0, '
    '"eligible": true, "m": 7, "n": 14, "alpha": 2, '
    '"beta": 0.2773500981126146}\n',
)

FIXTURE = (
    "v = 15\nk = 8\nlambda = 4\nmu = 4\ndeviation = -2\neligible = true\n"
    "m = 6\nn = 16\nalpha = 2.6666666666666665\nbeta = 0.3333333333333333\n",
    '{"v": 15, "k": 8, "lambda": 4, "mu": 4, "deviation": -2, '
    '"eligible": true, "m": 6, "n": 16, "alpha": 2.6666666666666665, '
    '"beta": 0.3333333333333333}\n',
)

FIXTURE_MINUS = (
    "v = 15\nk = 8\nlambda = 4\nmu = 4\ndeviation = -2\neligible = true\n"
    "m = 10\nn = 16\nalpha = 1.6\nbeta = -0.2\n",
    '{"v": 15, "k": 8, "lambda": 4, "mu": 4, "deviation": -2, '
    '"eligible": true, "m": 10, "n": 16, "alpha": 1.6, "beta": -0.2}\n',
)


@pytest.fixture
def files(capsys, tmp_path):
    """Built-in instances written to disk, keyed by a short name."""
    paths = {name: str(tmp_path / f"{name}.txt") for name in (
        "fano", "paley13", "paley13_gram", "fixture", "fixture_graph", "out",
    )}
    for argv in (
        ["generate", "steiner-fano", "-o", paths["fano"]],
        ["generate", "paley", "13", "-o", paths["paley13"]],
        ["srg-to-etf", paths["paley13"], "--gram-only", "-o", paths["paley13_gram"]],
        ["generate", "fixture6x16", "-o", paths["fixture"]],
        ["etf-to-srg", paths["fixture"], "-o", paths["fixture_graph"]],
    ):
        assert run(argv) == 0, argv
    capsys.readouterr()
    return paths


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["params", "etf", "7", "28"], PARAMS_27_16),
        (["params", "srg", "27", "16"], PARAMS_27_16),
        (["params", "srg", "7", "3"], PARAMS_7_3),
        (["params", "srg", "4", "0"], PARAMS_4_0),
        (["verify-etf", "{fano}"], FANO),
        (["verify-etf", "{paley13_gram}"], PALEY_13_GRAM),
        (["verify-srg", "{paley13}"], PALEY_13_GRAPH),
        (["etf-to-srg", "{fixture}", "-o", "{out}"], FIXTURE),
        (["srg-to-etf", "{fixture_graph}", "--minus", "-o", "{out}"], FIXTURE_MINUS),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else None,
)
def test_record_bytes(capsys, files, argv, expected):
    argv = [arg.format(**files) for arg in argv]
    text, as_json = expected
    assert invoke(capsys, *argv) == (0, text, "")
    assert invoke(capsys, *argv, "--json") == (0, as_json, "")


def test_spectrum_bytes(capsys, files):
    assert invoke(capsys, "spectrum", files["paley13"]) == (
        0,
        "k = 6\ngamma_plus = 1.3027756377319946\nmult_plus = 6\n"
        "gamma_minus = -2.302775637731995\nmult_minus = 6\n",
        "",
    )


def test_params_srg_text_and_json_agree(capsys):
    for v in range(2, 41):
        for k in range(1, v):
            argv = ["params", "srg", str(v), str(k)]
            code, text, _ = invoke(capsys, *argv)
            json_code, as_json, _ = invoke(capsys, *argv, "--json")
            assert code == json_code, argv
            if code:
                continue
            record = json.loads(as_json)
            lines = [line.split(" = ") for line in text.splitlines()]
            assert [key for key, _ in lines] == list(record), argv
            for key, value in lines:
                assert json.loads(value) == record[key], (argv, key)
