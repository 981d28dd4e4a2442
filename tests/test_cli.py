import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import etfkit as ek
import etfkit.cli
import etfkit.correspondence
import etfkit.frames
from etfkit.cli import (
    FileFormatError,
    _graph_from_lines,
    read_graph,
    read_matrix,
    run,
    write_graph,
    write_matrix,
)

from helpers import (
    invoke,
    noisy_paley_29_frame,
    noisy_paley_101_gram,
    record_to_dict,
    shrunk_paley_13_frame,
)


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


# Every line break `str.splitlines` knows besides "\n"; whitespace `str.split`
# knows besides " " and "\t"; digits `int` reads besides ASCII ones.
LINE_BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
SEPARATORS = (" ", "\t", "  ", " \t ", "\x1f", "\xa0", "\u3000")
OTHER_DIGITS = ("\u0660", "\uff10", "\u0966")  # Arabic-Indic, fullwidth, Devanagari zero


def _mutate_token(draw, token: str, v: int) -> str:
    kind = draw(st.integers(0, 8))
    if kind == 0:
        return draw(st.sampled_from(["+", "-", "0", "00", "+0"])) + token
    if kind == 4:  # 18 or 19 digits: the fast path reads either in a header, neither in a body
        return token.zfill(draw(st.sampled_from([18, 19])))
    if kind == 1:  # a digit separator, valid inside a number only
        cut = draw(st.integers(0, len(token)))
        return token[:cut] + "_" + token[cut:]
    if kind == 2:  # the same number in another script's digits
        zero = ord(draw(st.sampled_from(OTHER_DIGITS)))
        return "".join(chr(zero + int(c)) if c.isdigit() else c for c in token)
    if kind == 3:
        return token + draw(st.sampled_from(["#", " # note", ".0", "e0", "x"]))
    return str(draw(st.sampled_from([0, v, v + 1, 2 * v + 3, 10**18 - 1, 10**18, 2**63, 2**70])))


@st.composite
def graph_files(draw) -> str:
    """The text of a graph file: a Paley or small random graph, mutated."""
    if draw(st.booleans()):
        adj = ek.paley(draw(st.sampled_from([5, 13, 17]))).data
    else:
        v = draw(st.integers(1, 7))
        adj = np.zeros((v, v), dtype=np.int64)
        iu = np.triu_indices(v, 1)
        adj[iu] = draw(st.lists(st.booleans(), min_size=len(iu[0]), max_size=len(iu[0])))
    v = adj.shape[0]
    rows = [[str(v)]] + [[str(i + 1), str(j + 1)] for i, j in zip(*np.nonzero(np.triu(adj)))]
    if draw(st.integers(0, 9)) == 0:
        rows = rows[:1]  # header only
    if draw(st.booleans()):  # every token zero-padded: either side of 4 and of 8 digits
        digits = draw(st.integers(1, 12))
        rows = [[token.zfill(digits) for token in row] for row in rows]
    sep = draw(st.sampled_from((" ",) * 3 + SEPARATORS))
    end = draw(st.sampled_from(("\n",) * 6 + LINE_BREAKS))
    lines = [[sep, "", end] for _ in rows]  # separator, padding, line end
    for _ in range(draw(st.integers(0, 4))):
        r = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.integers(0, 9))
        if kind <= 2 and rows[r]:
            t = draw(st.integers(0, len(rows[r]) - 1))
            rows[r][t] = _mutate_token(draw, rows[r][t], v)
        elif kind == 3:  # a duplicate edge, or a blank or whitespace-only line
            blank = draw(st.booleans())
            rows.insert(r, [] if blank else list(rows[r]))
            lines.insert(r, list(lines[r]))
            if blank:
                lines[r][1] = draw(st.sampled_from(["", "\t", " \t "]))
        elif kind == 4:
            rows[r] = rows[r][::-1]  # i > j
        elif kind == 5:
            rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["1"]
        elif kind == 6:
            lines[r][0] = draw(st.sampled_from(SEPARATORS))
        elif kind == 7:
            lines[r][1] = draw(st.sampled_from([" ", "\t", " \t "]))
        elif kind == 8:
            lines[r][2] = draw(st.sampled_from(("\n\n",) + LINE_BREAKS))
        elif len(rows) > 1:
            del rows[r], lines[r]
    text = "".join(pad + s.join(row) + pad + e for row, (s, pad, e) in zip(rows, lines))
    return text if draw(st.integers(0, 4)) else text.rstrip("\n")


def _outcome(read, path: str):
    try:
        return "ok", read(path).data.tolist()
    except Exception as exc:  # compared, not handled: both readers must agree
        return type(exc).__name__, str(exc)


def _read_graph_line_by_line(path: str) -> ek.AdjacencyMatrix:
    with open(path) as fh:
        return ek.AdjacencyMatrix(_graph_from_lines(fh.read().splitlines(), path))


@settings(
    max_examples=400, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=graph_files())
def test_read_graph_matches_the_line_by_line_reader(tmp_path, text):
    path = str(tmp_path / "g.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert _outcome(read_graph, path) == _outcome(_read_graph_line_by_line, path)


def _spy_on_number_decoders(monkeypatch) -> list[str]:
    """The decoders that read a graph file's numbers, in the order they ran:
    "windows" when `_scan_body` accepted the body and decoded them, "lines"
    when the line-by-line parser ran."""
    ran = []
    scan_body, graph_from_lines = etfkit.cli._scan_body, etfkit.cli._graph_from_lines

    def scan(*args):
        numbers = scan_body(*args)
        if numbers is not None:
            ran.append("windows")
        return numbers

    def line_by_line(*args):
        ran.append("lines")
        return graph_from_lines(*args)

    monkeypatch.setattr(etfkit.cli, "_scan_body", scan)
    monkeypatch.setattr(etfkit.cli, "_graph_from_lines", line_by_line)
    return ran


# The decoders that read the numbers: the windows, the line-by-line parser,
# or neither (the vectorised pass refused the file before the windows read
# its numbers, and the line-by-line parser did not run).
_DECODERS = {"windows": ["windows"], "lines": ["lines"], None: []}

# A body after the header "5", whether the vectorised pass takes it, and the
# key in _DECODERS of the decoders that `_graph_from_bytes` runs on it. The
# header is one byte, so a body that starts with a token needs a window that
# starts before the file's first byte.
_PLAIN_CASES = [
    ("1 2\n2 3\n3 4\n4 5\n1 5\n", True, "windows"),
    ("\t\n1\t2\n\n 2  3 \n3 4\n4 5\n1 5", True, "windows"),  # tabs, blank and tab-only lines
    # The windows read tokens of up to 8 digits and refuse longer ones,
    # which the line-by-line parser reads.
    ("0001 0002\n", True, "windows"),
    ("1".zfill(5) + " 2\n", True, "windows"),
    ("10001 2\n", False, "windows"),  # read whole, out of range
    ("1".zfill(18) + " 2\n", False, None),
    ("1".zfill(19) + " 2\n", False, None),
    ("1".zfill(25) + " 2\n", False, None),
    ("1 " + str(2**63) + "\n", False, None),
    ("1 " + str(2**64 + 2) + "\n", False, None),
    ("+1 2\n", False, None),
    ("-1 2\n", False, None),
    ("1\n", False, None),
    ("1 2 3\n", False, None),
    ("1 2\r\n", False, None),
    # The token-end rule at its corners: each token end needs exactly one
    # token end next to it among the token ends and newlines.
    ("1 2 3 4\n", False, None),  # two edges on one line
    ("1\n2 3 4\n", False, None),  # one token, then three
    ("1 2\n3", False, None),  # a last line of one token, no final newline
    ("\n\n1 2\n", True, "windows"),  # leading blank lines
    ("1 2\t\n \n3 4", True, "windows"),  # a tab, a blank line, no final newline
]


@pytest.mark.parametrize("body, plain", [case[:2] for case in _PLAIN_CASES])
def test_plain_graph_files_take_the_vectorised_pass(body, plain):
    assert (etfkit.cli._graph_from_bytes(("5\n" + body).encode(), "g.txt") is not None) == plain


@pytest.mark.parametrize("body, plain, numbers", _PLAIN_CASES)
def test_plain_graph_files_take_the_vectorised_pass_windows_first(monkeypatch, body, plain, numbers):
    ran = _spy_on_number_decoders(monkeypatch)
    test_plain_graph_files_take_the_vectorised_pass(body, plain)
    assert ran == _DECODERS[numbers]


# Files too short for a window, or with a window that starts at the first byte.
@pytest.mark.parametrize("text, edges", [
    ("1", []), ("1\n", []), ("5\n", []), ("5\n\n", []), ("22\n1 2", [(1, 2)]),
])
def test_graph_files_of_a_few_bytes_take_the_vectorised_pass(
    tmp_path, monkeypatch, text, edges
):
    path = tmp_path / "g.txt"
    path.write_text(text)
    ran = _spy_on_number_decoders(monkeypatch)
    graph = read_graph(path)
    assert ran == ["windows"]
    assert graph == _read_graph_line_by_line(path)
    assert [(i + 1, j + 1) for i, j in zip(*np.nonzero(np.triu(graph.data)))] == edges


def test_the_vectorised_pass_agrees_with_the_line_parser_on_every_short_body():
    # Every body of at most six symbols over two digits, space, tab and
    # newline: the pass takes a file exactly when the line-by-line parser
    # accepts it, and then builds the same matrix.
    for length in range(7):
        for symbols in itertools.product("12 \t\n", repeat=length):
            text = "22\n" + "".join(symbols)
            fast = etfkit.cli._graph_from_bytes(text.encode(), "g.txt")
            try:
                slow = _graph_from_lines(text.splitlines(), "g.txt")
            except FileFormatError:
                assert fast is None, repr(text)
            else:
                assert fast is not None and np.array_equal(fast, slow), repr(text)


# Blocks of a few bytes split the bodies' lines at every offset, so the line
# rule is decided across block ends.
@pytest.mark.parametrize("block", [1, 2, 3, 5])
def test_the_vectorised_pass_agrees_with_the_line_parser_on_every_short_body_windows_first(
    monkeypatch, block
):
    monkeypatch.setattr(etfkit.cli, "_WINDOW_BLOCK_BYTES", block)
    ran = _spy_on_number_decoders(monkeypatch)
    test_the_vectorised_pass_agrees_with_the_line_parser_on_every_short_body()
    assert set(ran) == {"windows"}


def _matrix_text(matrix) -> str:
    """A matrix file's text, one `repr` per entry, as `write_matrix` writes it.

    This is the row-by-row writer that the table layout must match.
    """
    a = np.asarray(matrix, dtype=float)
    return f"{a.shape[0]} {a.shape[1]}\n" + "".join(
        " ".join(map(repr, row)) + "\n" for row in a.tolist()
    )


_GRAM_13 = ek.srg_to_etf_gram(ek.paley(13))[0]


@pytest.mark.parametrize("text", [
    _matrix_text(_GRAM_13.data),  # 3 distinct tokens a row: each parsed once
    _matrix_text(ek.synthesize_from_gram(_GRAM_13)),
    "2 4\n0.0 -0.0 0.0 -0.0\n-0.0 nan 10 1.5\n",
    "2 2\n\t\n1.0\t-0.5\n\n 5. .5e-3 \n",
], ids=["gram", "frame", "signed-zeros", "blank-lines"])
def test_read_matrix_gives_float_of_each_token(tmp_path, text):
    path = tmp_path / "m.txt"
    path.write_text(text, encoding="utf-8")
    tokens = [line.split() for line in text.splitlines()[1:] if line.strip()]
    expected = np.array([[float(t) for t in row] for row in tokens])
    assert read_matrix(path).view(np.int64).tolist() == expected.view(np.int64).tolist()


@pytest.mark.parametrize("command, text, message", [
    # `float` and `int` read these tokens; no decimal holds them.
    ("verify-etf", "2 4\n0.0 -0.0 0.0 -0.0\n-0.0 nan 1_0 \u0661.5\n", "line 3: bad entry '1_0'"),
    ("verify-etf", "2 2\n1 0\n0 \u0661.5\n", "line 3: bad entry '\u0661.5'"),
    ("verify-etf", "1 1\n\u0661\n", "line 2: bad entry '\u0661'"),
    ("verify-etf", "\u0662 2\n1 0\n0 1\n", "line 1: bad integer '\u0662'"),
    ("verify-etf", "2 2_0\n1 0\n0 1\n", "line 1: bad integer '2_0'"),
    ("verify-srg", "3\n1 \u0662\n2 3\n", "line 2: bad integer '\u0662'"),
    ("verify-srg", "3\n1 2_0\n", "line 2: bad integer '2_0'"),
    ("verify-srg", "1_0\n", "line 1: bad integer '1_0'"),
    # The body bounds the allocation, not the header.
    ("verify-etf", "100000000 100000000\n1 2\n3 4\n", "line 2: expected 100000000 entries, got 2"),
    ("verify-etf", "3 100000000000\n", "line 2: expected 3 data rows, found 0"),
    # The header and blank-line rule both formats share.
    ("verify-etf", "", "empty file"),
    ("verify-srg", "", "empty file"),
    ("verify-etf", "2\n1 0\n0 1\n", "line 1: expected header 'rows cols'"),
    ("verify-srg", "3 3\n", "line 1: expected header 'v'"),
])
def test_non_decimal_tokens_and_oversized_headers_exit_2(capsys, tmp_path, command, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    assert invoke(capsys, command, str(path)) == (2, "", f"error: {path}: {message}\n")


def test_non_ascii_whitespace_between_decimals_is_read(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1.0\xa00.5\n0.5\u30001.0\n", encoding="utf-8")
    assert read_matrix(path).tolist() == [[1.0, 0.5], [0.5, 1.0]]


@pytest.mark.parametrize("row, bad", [(0, "x"), (5, "x"), (5, "1e"), (12, "--1")])
def test_bad_entry_in_a_gram_file_names_its_line_and_token(tmp_path, row, bad):
    lines = _matrix_text(_GRAM_13.data).splitlines()
    tokens = lines[row + 1].split()
    tokens[3], tokens[7] = bad, "y"  # the first bad token is named
    lines[row + 1] = " ".join(tokens)
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as info:
        read_matrix(path)
    assert str(info.value) == f"{path}: line {row + 2}: bad entry {bad!r}"


def test_a_long_first_row_over_short_lines_allocates_by_the_file(capsys, tmp_path):
    # Row 0 shows 2000 entries and 1,999 one-token lines follow: 8,008 bytes
    # must not cost a 2000 x 2000 matrix before line 3 is refused.
    path = tmp_path / "tall.txt"
    path.write_text("2000 2000\n" + " ".join(["0"] * 2000) + "\n" + "0\n" * 1999)
    assert path.stat().st_size == 8008
    message = f"error: {path}: line 3: expected 2000 entries, got 1\n"
    assert invoke(capsys, "verify-etf", str(path)) == (2, "", message)
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError):
            read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


_G5 = ek.srg_to_etf_gram(ek.paley(5))[0].data
_MATRIX_BASES = (_G5, ek.synthesize_from_gram(ek.SymMatrix(_G5)), np.ones((3, 3)), np.eye(2))
_MATRIX_TOKENS = (
    "0", "1", "-1", "0.5", "-0.5", "+1", "1.", ".5", "1e-3", "-0.0", "1e308", "1e309",
    "nan", "-nan", "inf", "-inf", "1_0", "\u0661", "\uff11", "x", "1e", "--1", "0x1", "",
)
_HEADER_TOKENS = ("0", "1", "2", "3", "6", "-2", "2.0", "1_0", "\u0662", "100000000", "x")


@st.composite
def matrix_files(draw) -> str:
    """The text of a matrix file: an ETF's Gram or frame, the Gram of one
    repeated vector, the identity or random tokens, then mutated."""
    if draw(st.booleans()):
        base = draw(st.sampled_from(_MATRIX_BASES))
        rows = [[str(n) for n in base.shape]] + [list(map(repr, row)) for row in base.tolist()]
    else:
        n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        entries = st.lists(st.sampled_from(_MATRIX_TOKENS), min_size=n_cols, max_size=n_cols)
        rows = [[str(n_rows), str(n_cols)]] + [draw(entries) for _ in range(n_rows)]
    for _ in range(draw(st.integers(0, 4))):
        r = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.integers(0, 5))
        if kind == 0 and rows[r]:
            t = draw(st.integers(0, len(rows[r]) - 1))
            rows[r][t] = draw(st.sampled_from(_HEADER_TOKENS if r == 0 else _MATRIX_TOKENS))
        elif kind == 1:  # one entry too many or too few
            rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["0"]
        elif kind == 2:  # a blank or whitespace-only line
            rows.insert(r + 1, draw(st.sampled_from([[], [""], ["\t"], [" \t "]])))
        elif kind == 3:
            rows.insert(r, list(rows[r]))
        elif kind == 4 and len(rows) > 1:
            del rows[r]
        else:
            rows[r] = rows[r][::-1]
    sep = draw(st.sampled_from((" ", " ", "\t", "  ", "\xa0")))
    end = draw(st.sampled_from(("\n", "\n", "\r\n", "\r")))
    text = "".join(sep.join(row) + end for row in rows)
    return text if draw(st.integers(0, 4)) else text.rstrip(end)


@settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=matrix_files())
def test_matrix_files_end_with_an_exit_code_not_a_traceback(capsys, tmp_path, text):
    path = str(tmp_path / "m.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    for command in (["verify-etf", path], ["naimark", path, "-o", str(tmp_path / "out.txt")]):
        code, _, err = invoke(capsys, *command)
        assert code in (0, 1, 2)
        assert (code == 0) == (err == "")


def _graph_text(graph) -> str:
    """A graph file's text, one join per row, as `write_graph` writes it."""
    a = graph.data
    names = [str(i) for i in range(1, graph.v + 1)]
    text = f"{graph.v}\n"
    for i, name in enumerate(names):
        later = np.flatnonzero(a[i, i + 1:]) + (i + 1)
        if later.size:
            ends = [names[j] for j in later.tolist()]
            text += f"{name} " + f"\n{name} ".join(ends) + "\n"
    return text


@pytest.mark.parametrize("command, data, lineno, reason", [
    ("verify-srg", b"5\n1 2\n\xff", 3, "0xff (invalid start byte)"),
    ("verify-srg", b"\xfe\n", 1, "0xfe (invalid start byte)"),
    ("verify-srg", b"5\r\n1 2\r\n2 3\r\n\xe2\n", 4, "0xe2 (invalid continuation byte)"),
    ("verify-srg", b"5\r1 2\r\x0c3 4 \xc3", 4, "0xc3 (unexpected end of data)"),
    ("verify-etf", b"2 2\n1 0\n0 1\x80\n", 3, "0x80 (invalid start byte)"),
    ("verify-etf", "2 2\n1\u30000\n".encode() + b"\xff 1\n", 3, "0xff (invalid start byte)"),
], ids=["graph-end", "graph-header", "graph-crlf", "graph-cr-formfeed", "matrix", "matrix-wide-space"])
def test_a_byte_that_is_not_utf8_is_named_by_file_and_line(
    capsys, tmp_path, command, data, lineno, reason
):
    # Lines count as the readers count them: CR, CRLF and form feed end one.
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    message = f"error: {path}: line {lineno}: bad UTF-8 byte {reason}\n"
    assert invoke(capsys, command, str(path)) == (2, "", message)


def test_a_bad_byte_deep_in_a_large_file_is_named_by_its_line(tmp_path):
    lines = _graph_text(ek.paley(101)).encode().splitlines(keepends=True)
    lines[2000] = b"\xff" + lines[2000]
    path = tmp_path / "bad.txt"
    path.write_bytes(b"".join(lines))
    with pytest.raises(FileFormatError) as info:
        read_graph(path)
    assert str(info.value) == f"{path}: line 2001: bad UTF-8 byte 0xff (invalid start byte)"


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_graph_files_take_the_vectorised_pass(tmp_path, monkeypatch, end):
    path = tmp_path / "g.txt"
    path.write_bytes(_graph_text(ek.paley(13)).replace("\n", end).encode())

    def line_by_line(lines, path):
        raise AssertionError("the file left the vectorised pass")

    monkeypatch.setattr(etfkit.cli, "_graph_from_lines", line_by_line)
    assert read_graph(path) == ek.paley(13)


_PALEY_13_TEXT = _graph_text(ek.paley(13))


def _zero_padded(text: str, digits: int) -> bytes:
    """A graph file's text with every edge token zero-padded to `digits` digits."""
    header, *lines = text.splitlines(keepends=True)
    edges = "".join(" ".join(t.zfill(digits) for t in line.split()) + "\n" for line in lines)
    return (header + edges).encode()


# A Paley(13) file, the message it is refused with (None: read_graph returns
# Paley(13)), and the key in _DECODERS of the decoders that read its numbers.
# A file is decoded to text exactly when the windows do not read it.
_DECODED_CASES = [
    (_PALEY_13_TEXT.encode(), None, "windows"),
    # A tab before each line, a tab and a second space inside each edge and a
    # blank line after each line.
    ("".join(
        "\t" + line.replace(" ", "  \t", 1) + "\n\n" for line in _PALEY_13_TEXT.splitlines()
    ).encode(), None, "windows"),
    (_PALEY_13_TEXT.replace("\n", "\r\n").encode(), None, "windows"),
    ("13\n1 2\n2 \u0663\n".encode(), "line 3: bad integer '\u0663'", "lines"),
    (b"13\n1 2\n\xff\n", "line 3: bad UTF-8 byte 0xff (invalid start byte)", None),
    # Every edge token zero-padded to 19 digits, more than the windows read:
    # the line-by-line parser reads them.
    (_zero_padded(_PALEY_13_TEXT, 19), None, "lines"),
    # 2^64 + 2 is read whole by the line-by-line parser, not wrapped to the edge (1, 2).
    (b"3\n1 18446744073709551618\n", "line 2: edge (1,18446744073709551618) needs 1 <= i < j <= 3",
     "lines"),
    (_zero_padded(_PALEY_13_TEXT, 8), None, "windows"),  # 8 digits: the windows read them
    (_zero_padded(_PALEY_13_TEXT, 9), None, "lines"),  # 9: decoded once for the line parser
    # The header 13 zero-padded to 19 and to 25 digits: read by the rule both
    # formats share, at any length.
    (("0" * 17 + _PALEY_13_TEXT).encode(), None, "windows"),
    (("0" * 23 + _PALEY_13_TEXT).encode(), None, "windows"),
]
_DECODED_IDS = ["as-written", "tabs-and-blank-lines", "crlf", "non-ascii", "bad-utf8", "zero-padded",
                "past-2-to-the-64", "zero-padded-to-8", "zero-padded-to-9",
                "header-zero-padded-to-19", "header-zero-padded-to-25"]


def _spy_on_decode(monkeypatch) -> list:
    """The paths of the files decoded to text, in the order `_decode` ran."""
    decoded = []
    decode = etfkit.cli._decode

    def counted(data, path):
        decoded.append(path)
        return decode(data, path)

    monkeypatch.setattr(etfkit.cli, "_decode", counted)
    return decoded


@pytest.mark.parametrize("data, message, numbers", _DECODED_CASES, ids=_DECODED_IDS)
def test_only_graph_files_the_vectorised_pass_refuses_are_decoded(
    tmp_path, monkeypatch, data, message, numbers
):
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    decoded = _spy_on_decode(monkeypatch)
    if message is None:
        assert read_graph(path) == ek.paley(13)
    else:
        with pytest.raises(FileFormatError) as info:
            read_graph(path)
        assert str(info.value) == f"{path}: {message}"
    assert decoded == ([] if numbers == "windows" else [path])


@pytest.mark.parametrize("data, message, numbers", _DECODED_CASES, ids=_DECODED_IDS)
def test_only_graph_files_the_vectorised_pass_refuses_are_decoded_windows_first(
    tmp_path, monkeypatch, data, message, numbers
):
    ran = _spy_on_number_decoders(monkeypatch)
    test_only_graph_files_the_vectorised_pass_refuses_are_decoded(
        tmp_path, monkeypatch, data, message, numbers
    )
    assert ran == _DECODERS[numbers]


# Plain files with a bad header: the vectorised pass refuses them with the
# line parser's message, before any decoding.
@pytest.mark.parametrize("text", ["", "\n1 2\n", " \t\n", "0\n", "00\n1 2\n", "5 6\n", "1 1"])
def test_a_plain_graph_file_with_a_bad_header_is_refused_undecoded(tmp_path, monkeypatch, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    with pytest.raises(FileFormatError) as expected:
        _graph_from_lines(text.splitlines(), str(path))
    decoded = _spy_on_decode(monkeypatch)
    with pytest.raises(FileFormatError) as info:
        read_graph(path)
    assert str(info.value) == str(expected.value)
    assert decoded == []


# Tokens of 1 to 8 digits, the longer ones past any v a test can allocate:
# read by `_scan_body` alone, so that every high digit counts.
_LONG_NUMBERS = [n for d in range(1, 9) for n in (10 ** (d - 1), 10**d - 1, int("98765432"[:d]))]


@pytest.mark.parametrize("block", [1, 2, 3, 5, 1021])
def test_the_windows_read_every_token_of_up_to_8_digits(monkeypatch, block):
    monkeypatch.setattr(etfkit.cli, "_WINDOW_BLOCK_BYTES", block)
    body = "".join(f"{i} {j}\n" for i, j in zip(_LONG_NUMBERS, _LONG_NUMBERS[::-1]))
    numbers = etfkit.cli._scan_body(("9\n" + body).encode(), 2)
    assert numbers.tolist() == [int(token) for token in body.split()]
    assert etfkit.cli._scan_body(("9\n" + body + "1 123456789\n").encode(), 2) is None


def _relabelled(graph: ek.AdjacencyMatrix, seed: int) -> ek.AdjacencyMatrix:
    sigma = np.random.default_rng(seed).permutation(graph.v)
    return ek.AdjacencyMatrix(graph.data[np.ix_(sigma, sigma)])


def _two_k1024() -> ek.AdjacencyMatrix:
    """Two disjoint copies of K_1024: tokens of 1 to 4 digits."""
    blocks = np.kron(np.eye(2, dtype=np.int8), np.ones((1024, 1024), dtype=np.int8))
    return ek.AdjacencyMatrix(blocks - np.eye(2048, dtype=np.int8))


# A block of a few bytes splits the token ends and windows at every offset.
# 2K1024's 10 MB file would take minutes in blocks that small; its 1021-byte
# blocks (a prime) put about 10,000 boundaries at varying offsets in its lines.
@pytest.mark.parametrize("build, block", [
    *((lambda: _relabelled(ek.paley(101), seed=3), b) for b in (1, 3, 8)),
    *((lambda: _random_graph(150, seed=150), b) for b in (1, 3, 8)),
    (_two_k1024, 1021),
], ids=["paley101-1", "paley101-3", "paley101-8", "random150-1", "random150-3", "random150-8",
        "2K1024-1021"])
def test_the_window_decoder_reads_across_its_blocks(tmp_path, monkeypatch, build, block):
    graph = build()
    path = tmp_path / "g.txt"
    write_graph(path, graph)
    monkeypatch.setattr(etfkit.cli, "_WINDOW_BLOCK_BYTES", block)
    ran = _spy_on_number_decoders(monkeypatch)
    assert read_graph(path) == _read_graph_line_by_line(path) == graph
    assert ran == ["windows"]


def _paley_101_lines() -> list[str]:
    """The lines of a relabelled Paley(101) file: a 14.8 kB body, whose
    numbers are decoded by windows, 15 blocks of 1021 bytes."""
    return _graph_text(_relabelled(ek.paley(101), seed=3)).splitlines(keepends=True)


def _one_token(line: str) -> str:
    return line.split()[0] + "\n"


def _padded(line: str) -> str:
    """The edge with its second token zero-padded to 5 digits."""
    i, j = line.split()
    return f"{i} {j.zfill(5)}\n"


@pytest.mark.parametrize("edit, index, padded", [
    (lambda line: line.replace("\n", " 7\n"), -1, None),  # a third token on the last line
    (_one_token, 600, None),  # in the 4th block
    (_one_token, 600, 1),  # after a 5-digit token in the first block
], ids=["three-tokens-last-line", "one-token-mid-file", "one-token-after-a-long-token"])
def test_a_bad_line_past_the_first_block_is_named_by_the_line_parser(
    tmp_path, monkeypatch, edit, index, padded
):
    lines = _paley_101_lines()
    if padded is not None:
        lines[padded] = _padded(lines[padded])
    lines[index] = edit(lines[index])
    path = tmp_path / "g.txt"
    path.write_text("".join(lines))
    monkeypatch.setattr(etfkit.cli, "_WINDOW_BLOCK_BYTES", 1021)
    ran = _spy_on_number_decoders(monkeypatch)
    with pytest.raises(FileFormatError) as info:
        read_graph(path)
    lineno = index % len(lines) + 1
    assert str(info.value) == f"{path}: line {lineno}: expected an edge 'i j'"
    assert ran == ["lines"]  # the scan refused the body


def _padded_at_a_block_end(text: str, digits: int, where: str, block: int) -> str:
    """The graph file `text` with its middle token zero-padded to `digits`
    digits and blank lines put before its body, so that the token's last
    byte is the first byte of one of `_scan_body`'s blocks, or its last."""
    header, body = text.split("\n", 1)
    tokens = list(re.finditer("[0-9]+", body))
    token = tokens[len(tokens) // 2]
    body = body[: token.start()] + token[0].zfill(digits) + body[token.end() :]
    end = token.start() + digits - 1  # in the body
    blank = (-end if where == "first" else block - 1 - end) % block
    return f"{header}\n" + "\n" * blank + body


# A zero-padded token of 5 or 8 digits takes a second window, and one of 9
# sends the file to the line-by-line parser. Each ends the first or the last
# token of a block, so the high window of a long token lies in the block
# before, or across it, at block sizes of a few bytes.
@pytest.mark.parametrize("block", [1, 2, 3, 5, 1021])
@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("digits, numbers", [(5, "windows"), (8, "windows"), (9, "lines")])
def test_a_zero_padded_token_at_a_block_end(tmp_path, monkeypatch, digits, numbers, where, block):
    graph = _relabelled(ek.paley(101), seed=3) if block > 5 else ek.paley(13)
    path = tmp_path / "g.txt"
    path.write_text(_padded_at_a_block_end(_graph_text(graph), digits, where, block))
    monkeypatch.setattr(etfkit.cli, "_WINDOW_BLOCK_BYTES", block)
    ran = _spy_on_number_decoders(monkeypatch)
    assert read_graph(path) == _read_graph_line_by_line(path) == graph
    assert ran == _DECODERS[numbers]


def _written(tmp_path, write, value) -> bytes:
    path = tmp_path / "out.txt"
    write(path, value)
    return path.read_bytes()


def _nan(bits: int) -> float:
    return float(np.array([bits], dtype=np.int64).view(np.float64)[0])


SPECIAL_VALUES = (0.0, -0.0, np.nan, -np.nan, _nan(0x7FF0000000000001), np.inf, -np.inf,
                  5e-324, -5e-324, 1e308, 1.0, -1.0)


@pytest.mark.parametrize("matrix", [
    np.array([[0.0, -0.0, 0.0, 0.0], [-0.0, 0.0, -0.0, -0.0], [0.0, 0.0, 0.0, -0.0]]),
    np.array([[np.nan, _nan(0x7FF0000000000001), np.nan, -np.nan]] * 3),
    np.array([[np.inf, -np.inf, 1e308, 5e-324, 1e308, 5e-324, np.inf, -np.inf]] * 2),
    np.array([SPECIAL_VALUES]),
    np.array([SPECIAL_VALUES]).T,
    np.array([[0.5]]),
    np.array([[-0.0]]),
    np.full((1, 9), 0.1),
    np.full((9, 1), 0.1),
    np.eye(5),
    _GRAM_13.data,
    ek.srg_to_etf_gram_minus(ek.paley(13))[0].data,
    ek.synthesize_from_gram(_GRAM_13),
    ek.fixture_6x16(),
    ek.steiner_etf(ek.fano_plane()),
    np.random.default_rng(7).normal(size=(6, 11)),
    np.zeros((0, 3)),
    np.zeros((3, 0)),
], ids=lambda a: f"{a.shape[0]}x{a.shape[1]}")
def test_write_matrix_matches_the_row_writer(tmp_path, matrix):
    assert _written(tmp_path, write_matrix, matrix) == _matrix_text(matrix).encode()


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    pool=st.lists(st.sampled_from(SPECIAL_VALUES) | st.floats(width=64), min_size=1, max_size=4),
    data=st.data(),
)
def test_write_matrix_matches_the_row_writer_on_few_values(tmp_path, shape, pool, data):
    values = data.draw(st.lists(st.sampled_from(pool), min_size=shape[0] * shape[1],
                                max_size=shape[0] * shape[1]))
    matrix = np.reshape(values, shape)
    assert _written(tmp_path, write_matrix, matrix) == _matrix_text(matrix).encode()


def _random_graph(v: int, seed: int) -> ek.AdjacencyMatrix:
    upper = np.triu(np.random.default_rng(seed).integers(0, 2, size=(v, v)), 1)
    return ek.AdjacencyMatrix(upper + upper.T)


@pytest.mark.parametrize("graph", [
    ek.AdjacencyMatrix(np.zeros((1, 1), dtype=int)),
    ek.AdjacencyMatrix(np.zeros((10, 10), dtype=int)),
    ek.AdjacencyMatrix(1 - np.eye(10, dtype=int)),
    ek.AdjacencyMatrix(1 - np.eye(100, dtype=int)),
    ek.paley(13),
    *(_random_graph(v, v) for v in (2, 9, 10, 11, 99, 100, 101, 999, 1000)),
], ids=lambda g: f"v{g.v}-e{int(g.data.sum()) // 2}")
def test_write_graph_matches_the_row_writer(tmp_path, graph):
    assert _written(tmp_path, write_graph, graph) == _graph_text(graph).encode()


# ----------------------------------------------------------------- outputs


WRITING_COMMANDS = [
    ["generate", "paley", "29"],
    ["generate", "fixture6x16"],
    ["generate", "steiner-fano"],
    ["generate", "steiner-pairs4"],
    ["srg-to-etf", "{graph}"],
    ["srg-to-etf", "{graph}", "--gram-only"],
    ["srg-to-etf", "{graph}", "--minus"],
    ["etf-to-srg", "{frame}"],
    ["etf-to-srg", "{gram}"],
    ["naimark", "{frame}"],
    ["naimark", "{gram}"],
    ["complement", "{graph}"],
]


@pytest.fixture
def inputs(capsys, tmp_path):
    """A Paley(13) graph, the fixture frame and a Gram file, keyed by name."""
    paths = {name: str(tmp_path / f"{name}.in") for name in ("graph", "frame", "gram")}
    for argv in (
        ["generate", "paley", "13", "-o", paths["graph"]],
        ["generate", "fixture6x16", "-o", paths["frame"]],
        ["srg-to-etf", paths["graph"], "--gram-only", "-o", paths["gram"]],
    ):
        assert run(argv) == 0, argv
    capsys.readouterr()
    return paths


@pytest.mark.parametrize("before", ["none", "longer", "shorter"])
@pytest.mark.parametrize("argv", WRITING_COMMANDS, ids=" ".join)
def test_writing_commands_overwrite_their_output_in_place(capsys, tmp_path, inputs, argv, before):
    argv = [arg.format(**inputs) for arg in argv]
    fresh, out, link = tmp_path / "fresh.txt", tmp_path / "out.txt", tmp_path / "link.txt"
    expected = invoke(capsys, *argv, "-o", str(fresh))
    assert expected[0] == 0
    data = fresh.read_bytes()
    if before != "none":
        out.write_bytes(b"x" * (2 * len(data)) if before == "longer" else data[:1])
        out.chmod(0o640)
        os.link(out, link)
        kept = out.stat()
    assert invoke(capsys, *argv, "-o", str(out)) == expected
    assert out.read_bytes() == data
    if before != "none":
        assert (out.stat().st_ino, out.stat().st_mode) == (kept.st_ino, kept.st_mode)
        assert link.read_bytes() == data


def test_writers_open_without_truncating(tmp_path, monkeypatch):
    # Truncating an existing file on open frees its blocks, which costs
    # milliseconds on ext4; the writers cut the file after writing.
    flags = []
    real_open = os.open

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    write_matrix(tmp_path / "m.txt", np.eye(3))
    write_graph(tmp_path / "g.txt", ek.paley(5))
    assert len(flags) == 2
    for flag in flags:
        assert flag & os.O_TRUNC == 0
        assert flag & os.O_CREAT and flag & (os.O_WRONLY | os.O_RDWR)


def test_a_failed_write_leaves_only_what_was_written(tmp_path, monkeypatch):
    path = tmp_path / "m.txt"
    path.write_bytes(b"x" * 1000)

    def fail(pieces, index):
        raise MemoryError

    monkeypatch.setattr(etfkit.cli, "_layout", fail)
    with pytest.raises(MemoryError):
        write_matrix(path, np.eye(4))  # the header is written, then the table layout fails
    assert path.read_bytes() == b"4 4\n"


@pytest.mark.parametrize("argv", WRITING_COMMANDS, ids=" ".join)
def test_writing_to_the_null_device_exits_0(capsys, inputs, argv):
    argv = [arg.format(**inputs) for arg in argv]
    code, _, err = invoke(capsys, *argv, "-o", os.devnull)
    assert (code, err) == (0, "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
@pytest.mark.parametrize("argv", WRITING_COMMANDS, ids=" ".join)
def test_writing_to_a_pipe_gives_the_file_bytes(capsys, tmp_path, inputs, argv):
    argv = [arg.format(**inputs) for arg in argv]
    expected = invoke(capsys, *argv, "-o", str(tmp_path / "fresh.txt"))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write does not block
    try:
        assert invoke(capsys, *argv, "-o", str(fifo)) == expected
        data = os.read(reader, 1 << 16)  # every output here fits the pipe's buffer
    finally:
        os.close(reader)
    assert data == (tmp_path / "fresh.txt").read_bytes()


@pytest.mark.parametrize("argv", [["generate", "paley", "13"], ["naimark", "{frame}"]], ids=" ".join)
def test_unwritable_outputs_keep_their_messages(capsys, tmp_path, inputs, argv):
    argv = [arg.format(**inputs) for arg in argv]
    message = f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    assert invoke(capsys, *argv, "-o", str(tmp_path)) == (2, "", message)
    missing = str(tmp_path / "no" / "out.txt")
    message = f"error: [Errno 2] No such file or directory: {missing!r}\n"
    assert invoke(capsys, *argv, "-o", missing) == (2, "", message)


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


@pytest.mark.parametrize("argv, message", [
    # m = 1: alpha = n / m is beyond the largest float.
    (["params", "etf", "1", str(10**400)], f"alpha = n/m overflows a float for shape (1,{10**400})"),
    (["params", "srg", str(10**400), str(10**400 - 1)],
     f"alpha = n/m overflows a float for shape (1,{10**400 + 1})"),
    # m < n, but sqrt((n-m)/(m(n-1))) is below the smallest float.
    (["params", "srg", str(10**400), "0"],
     f"beta = sqrt((n-m)/(m*(n-1))) underflows to 0 for shape ({10**400},{10**400 + 1})"),
    (["welch", str(10**400), str(10**400 + 1)],
     f"beta = sqrt((n-m)/(m*(n-1))) underflows to 0 for shape ({10**400},{10**400 + 1})"),
    # n = v + 1 = 10^4300 has one digit more than Python prints an int with.
    (["params", "srg", str(10**4300 - 1), str(10**4300 - 2)],
     f"alpha = n/m overflows a float for shape (1,1+{10**4300 - 1})"),
    (["params", "srg", str(10**4300 - 1), "0"],
     f"beta = sqrt((n-m)/(m*(n-1))) underflows to 0 for shape "
     f"({10**4300 - 1},{10**4300 - 1}+1)"),
], ids=["etf-alpha", "srg-alpha", "srg-beta", "welch-beta", "srg-alpha-4301-digits",
        "srg-beta-4301-digits"])
def test_a_shape_beyond_the_floats_exits_2_naming_it(capsys, argv, message):
    flags = ([], ["--json"]) if argv[0] == "params" else ([],)
    for flag in flags:
        assert invoke(capsys, *argv, *flag) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("e, beta", [(300, "1e-300"), (320, "1e-320")], ids=["normal", "subnormal"])
def test_welch_prints_a_beta_whose_quotient_underflows(capsys, e, beta):
    # (n-m)/(m(n-1)) = 10^-2e lies below the smallest float, but its root does not.
    assert invoke(capsys, "welch", str(10**e), str(10**e + 1)) == (0, f"{beta}\n", "")


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


def _edgeless_complete_and_paley_graphs():
    for v in [*range(2, 41), 49]:
        yield f"edgeless-{v}", ek.AdjacencyMatrix(np.zeros((v, v), dtype=np.int8))
        yield f"complete-{v}", ek.AdjacencyMatrix(1 - np.eye(v, dtype=np.int8))
    for q in range(5, 102, 4):
        if all(q % d for d in range(2, math.isqrt(q) + 1)):
            yield f"paley-{q}", ek.paley(q)


def test_srg_to_etf_prints_the_record_its_gram_reads_back(capsys, tmp_path):
    # The Gram is written as I + beta S, with 1.0 on its diagonal, and every
    # off-diagonal modulus is beta, the Welch bound that verify-srg prints,
    # which verification reads back as is. The minus root prints the Welch
    # bound of the complement shape, negated.
    files = [tmp_path / name for name in ("g.txt", "G.txt", "b.txt")]
    graph, gram, back = map(str, files)
    graphs = list(_edgeless_complete_and_paley_graphs())
    assert len(graphs) == 2 * 40 + 12
    for name, adjacency in graphs:
        write_graph(graph, adjacency)
        for flags in ([], ["--json"]):
            written = invoke(capsys, "srg-to-etf", graph, "--gram-only", "-o", gram, *flags)
            assert written[0] == 0, name
            assert invoke(capsys, "verify-srg", graph, *flags) == written, name
            assert invoke(capsys, "verify-etf", gram, *flags) == written, name
            assert invoke(capsys, "etf-to-srg", gram, "-o", back, *flags) == written, name
            assert files[2].read_bytes() == files[0].read_bytes(), name
        assert (np.diag(read_matrix(gram)) == 1.0).all(), name

        code, out, _ = invoke(capsys, "srg-to-etf", graph, "--minus", "-o", gram, "--json")
        minus = json.loads(out)
        _, out, _ = invoke(capsys, "params", "etf", str(minus["m"]), str(minus["n"]), "--json")
        frame = {key: json.loads(out)[key] for key in ("m", "n", "alpha", "beta")}
        frame["beta"] = -frame["beta"]
        assert code == 0 and {key: minus[key] for key in frame} == frame, name


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


def test_paley_1009_double_complement_is_byte_identical(capsys, tmp_path):
    graph, comp, back = (tmp_path / f for f in ("g.txt", "c.txt", "back.txt"))
    assert invoke(capsys, "generate", "paley", "1009", "-o", str(graph))[0] == 0
    assert invoke(capsys, "complement", str(graph), "-o", str(comp))[0] == 0
    assert invoke(capsys, "complement", str(comp), "-o", str(back))[0] == 0
    assert back.read_bytes() == graph.read_bytes()


def test_frame_commands_do_no_repeated_work(capsys, tmp_path, monkeypatch):
    calls = dict.fromkeys(
        ("sym_eigen", "read_matrix", "gram", "verify_etf_gram", "verify_srg", "param_maps"), 0
    )

    def count(module, name, key=None):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key or name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(etfkit.frames, "sym_eigen")
    count(etfkit.cli, "read_matrix")
    count(etfkit.cli, "gram")  # frames.gram, as each caller binds it
    count(etfkit.correspondence, "gram")
    for module in (etfkit.frames, etfkit.cli, etfkit.correspondence):
        count(module, "verify_etf_gram")
    for module in (etfkit.cli, etfkit.correspondence):
        count(module, "verify_srg")
        for name in ("srg_params_to_etf_params", "etf_params_to_srg_params"):
            count(module, name, "param_maps")

    graph, frame, gram = (str(tmp_path / f) for f in ("g.txt", "f.txt", "G.txt"))
    out = str(tmp_path / "out.txt")
    invoke(capsys, "generate", "paley", "13", "-o", graph)
    # (argv, most sym_eigen calls, exact read_matrix calls, exact gram calls,
    # exact verify_etf_gram calls, exact verify_srg calls, exact parameter
    # map calls): each matrix a command handles is verified once, and its
    # parameters on the other side are derived once
    for argv, eigen_max, reads, grams, etf_checks, srg_checks, maps in (
        (["srg-to-etf", graph, "--gram-only", "-o", gram], 0, 0, 0, 0, 1, 1),
        (["srg-to-etf", graph, "--minus", "--gram-only", "-o", out], 0, 0, 0, 0, 1, 1),
        (["srg-to-etf", graph, "-o", frame], 1, 0, 0, 0, 1, 1),
        (["etf-to-srg", gram, "-o", out], 0, 1, 0, 1, 0, 1),
        (["etf-to-srg", frame, "-o", out], 0, 1, 1, 1, 0, 1),
        (["naimark", frame, "-o", out], 1, 1, 1, 1, 0, 0),
        (["verify-etf", frame], 0, 1, 1, 1, 0, 1),
    ):
        calls.update(dict.fromkeys(calls, 0))
        assert invoke(capsys, *argv)[0] == 0
        assert calls["sym_eigen"] <= eigen_max, argv
        assert calls["read_matrix"] == reads, argv
        assert calls["gram"] == grams, argv
        assert calls["verify_etf_gram"] == etf_checks, argv
        assert calls["verify_srg"] == srg_checks, argv
        assert calls["param_maps"] == maps, argv


def test_graph_commands_check_no_matrix_they_build(capsys, tmp_path, monkeypatch):
    # Every matrix these commands handle comes from a producer that is valid
    # by construction, so no public constructor re-checks one.
    calls = {ek.AdjacencyMatrix: 0, ek.SymMatrix: 0}
    for cls in calls:
        original = cls.__init__

        def counted(self, data, cls=cls, original=original):
            calls[cls] += 1
            original(self, data)

        monkeypatch.setattr(cls, "__init__", counted)

    graph, comp, frame, gram, out = (
        str(tmp_path / f) for f in ("g.txt", "c.txt", "f.txt", "G.txt", "o.txt")
    )
    for argv in (
        ["generate", "paley", "13", "-o", graph],
        ["verify-srg", graph],
        ["verify-srg", "--json", graph],
        ["spectrum", graph],
        ["complement", graph, "-o", comp],
        ["srg-to-etf", graph, "--gram-only", "-o", gram],
        ["srg-to-etf", graph, "--minus", "-o", frame],
        ["srg-to-etf", graph, "-o", frame],
        ["etf-to-srg", gram, "-o", out],
        ["etf-to-srg", frame, "-o", out],
    ):
        assert invoke(capsys, *argv)[0] == 0, argv
        assert calls == {ek.AdjacencyMatrix: 0, ek.SymMatrix: 0}, argv
    ek.AdjacencyMatrix(np.zeros((1, 1), dtype=int))  # the counter sees a public call
    ek.SymMatrix(np.eye(2))
    assert calls == {ek.AdjacencyMatrix: 1, ek.SymMatrix: 1}


@pytest.mark.parametrize("n", [3, 4])
def test_one_vector_repeated_and_the_complete_graph_print_one_record(capsys, tmp_path, n):
    # m = 1 is in the dictionary: n copies of one vector <-> K_{n-1}, whose
    # mu is vacuous and prints 0.
    frame, graph, back, out = (str(tmp_path / f) for f in ("f.txt", "g.txt", "b.txt", "o.txt"))
    write_matrix(frame, np.ones((1, n)))
    write_graph(graph, ek.AdjacencyMatrix(1 - np.eye(n - 1, dtype=int)))
    expected = (
        f"v = {n - 1}\nk = {n - 2}\nlambda = {n - 3}\nmu = 0\ndeviation = {2 - n}\n"
        f"eligible = true\nm = 1\nn = {n}\nalpha = {n}\nbeta = 1\n"
    )
    for argv in (
        ["params", "etf", "1", str(n)],
        ["params", "srg", str(n - 1), str(n - 2)],
        ["verify-etf", frame],
        ["verify-srg", graph],
        ["etf-to-srg", frame, "-o", back],
        ["srg-to-etf", graph, "-o", out],
    ):
        assert invoke(capsys, *argv) == (0, expected, ""), argv
    assert read_graph(back) == read_graph(graph)
    assert np.allclose(np.abs(read_matrix(out)), 1.0, rtol=0.0, atol=1e-12)


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


def test_huge_finite_gram_entry_is_named_with_warnings_as_errors(capsys, tmp_path):
    g = np.eye(4)
    g[0, 1] = g[1, 0] = g[2, 3] = g[3, 2] = 1e308
    path = tmp_path / "huge.txt"
    write_matrix(path, g)
    code, _, err = invoke(capsys, "verify-etf", str(path))
    assert code == 1
    assert "G(0,1)| = 1e+308" in err and "inf" not in err


@pytest.mark.parametrize("command", ["verify-etf", "etf-to-srg", "naimark"])
@pytest.mark.parametrize("n", [2, 3])
def test_huge_gram_fails_the_idempotency_clause_with_warnings_as_errors(
    capsys, tmp_path, command, n
):
    # The entries pass the modulus clause; G^2 overflows to inf or nan.
    g = np.full((n, n), 1e308)
    np.fill_diagonal(g, 1.0)
    path = tmp_path / "huge.txt"
    write_matrix(path, g)
    output = [] if command == "verify-etf" else ["-o", str(tmp_path / "out.txt")]
    code, out, err = invoke(capsys, command, str(path), *output)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: max |G^2 - {float(n)!r} G| = ") and "exceeds tol" in err


@pytest.mark.parametrize("command", ["verify-etf", "etf-to-srg", "naimark"])
@pytest.mark.parametrize("text, message", [
    ("2 2\n1 nan\nnan 1\n", "G(0,1) = nan is not finite"),
    ("2 2\n1 -nan\n-nan 1\n", "G(0,1) = nan is not finite"),
    ("2 3\n1 0 nan\n0 1 0\n", "column 2 has norm nan, expected 1"),
    ("2 3\n1 0 inf\n0 1 0\n", "column 2 has norm inf, expected 1"),
    ("2 2\ninf 0\n0 1\n", "column 0 has norm inf, expected 1"),
    ("2 3\n1 0 1e200\n0 1 0\n", "column 2 has norm 1e+200, expected 1"),
])
def test_non_finite_entry_is_named(capsys, tmp_path, command, text, message):
    path = tmp_path / "nan.txt"
    path.write_text(text)
    output = [] if command == "verify-etf" else ["-o", str(tmp_path / "out.txt")]
    assert invoke(capsys, command, str(path), *output) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("m, k_real", [(443, "923.9999992015318"), (1357, "874.0000007984682")])
def test_params_etf_rejects_a_near_integral_degree(capsys, m, k_real):
    code, out, err = invoke(capsys, "params", "etf", str(m), "1800")
    assert code == 1
    assert out == ""
    assert err == f"error: degree {k_real} for shape ({m},1800)\n"


_BIG = 10**400  # beyond any float
_HUGE = 10**3000  # its square passes the digit limit of int-to-str conversion


def _dimension(v, k):
    d = v - 2 * k - 1
    return f"dimension ({v}+1)/2 * (1 + {d}/sqrt({abs(d)}^2 + 4*{v})) for (v,k)=({v},{k})"


def _degree(m, n):
    return (
        f"degree {n}/2 - 1 + ({n}/(2*{m}) - 1) * sqrt({m}*({n}-1)/({n}-{m})) "
        f"for shape ({m},{n})"
    )


@pytest.mark.parametrize("argv, message", [
    (["srg", "10", "3"], "dimension 7.857142857142858 for (v,k)=(10,3)"),
    # The floats 1e+18, 1.0 and 1.5000000006123725e+18 look integral.
    (["srg", str(10**18), "1"], _dimension(10**18, 1)),
    (["srg", str(10**18), str(10**18 - 2)], _dimension(10**18, 10**18 - 2)),
    (["etf", str(10**18), str(3 * 10**18)], _degree(10**18, 3 * 10**18)),
    # No float holds these.
    (["srg", str(_BIG), "1"], _dimension(_BIG, 1)),
    (["etf", str(_BIG), str(3 * _BIG)], _degree(_BIG, 3 * _BIG)),
    (["srg", str(_HUGE), "1"], _dimension(_HUGE, 1)),
    (["etf", str(_HUGE), str(3 * _HUGE)], _degree(_HUGE, 3 * _HUGE)),
], ids=["near", "srg-1e18", "srg-1e18-negative-d", "etf-1e18", "srg-1e400", "etf-1e400",
        "srg-1e3000", "etf-1e3000"])
def test_a_non_integral_quantity_is_named_exactly_where_its_float_looks_whole(
    capsys, argv, message
):
    for flags in ([], ["--json"]):
        assert invoke(capsys, "params", *argv, *flags) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["verify-etf", "etf-to-srg", "naimark"])
def test_frame_file_with_long_column_names_the_column(capsys, tmp_path, command):
    path = tmp_path / "frame.txt"
    path.write_text("2 3\n1 0 2\n0 1 0\n")
    output = [] if command == "verify-etf" else ["-o", str(tmp_path / "out.txt")]
    code, out, err = invoke(capsys, command, str(path), *output)
    assert code == 1
    assert out == ""
    assert err == "error: column 2 has norm 2.0, expected 1\n"


@pytest.mark.parametrize("command", ["verify-etf", "etf-to-srg", "naimark"])
@pytest.mark.parametrize("frame, message", [
    ([[1, 0, 0.6], [0, 1, 0.8]], "|G(0,1)| = 0.0 vs common modulus 0.4666666666666666"),
    # The upper Cholesky factor of I + (J - I)/2: square, skewed and off
    # the unit diagonal, so it is read as a frame only.
    (np.linalg.cholesky(np.full((3, 3), 0.5) + 0.5 * np.eye(3)).T,
     "max |G^2 - 3.0 G| = 1.500e+00 exceeds tol 1.000e-08"),
], ids=["wide", "square"])
def test_a_frame_of_unit_columns_is_named_by_its_grams_verdict(
    capsys, tmp_path, command, frame, message
):
    path = tmp_path / "frame.txt"
    write_matrix(path, frame)
    output = [] if command == "verify-etf" else ["-o", str(tmp_path / "out.txt")]
    assert invoke(capsys, command, str(path), *output) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("frame, q, tol", [
    (shrunk_paley_13_frame, 13, None),
    (noisy_paley_29_frame, 29, "1e-4"),
    (noisy_paley_101_gram, 101, None),
], ids=["shrunk-paley-13", "noisy-paley-29", "noisy-paley-101-gram"])
def test_etf_to_srg_converts_the_frames_verify_etf_accepts(
    capsys, tmp_path, monkeypatch, frame, q, tol
):
    # The frames pass verification with a root residual above 1e-9, and the
    # Gram file with its moduli spread by up to 1e-8 around beta; the
    # conversion prints the record verify-etf prints, and no other check
    # re-decides alpha or beta. The graph is Paley(q), byte for byte.
    if tol:
        monkeypatch.setenv("ETFKIT_TOL", tol)
    path, out, paley = (str(tmp_path / f) for f in ("frame.txt", "graph.txt", "paley.txt"))
    write_matrix(path, frame())
    for flags in ([], ["--json"]):
        code, record, err = invoke(capsys, "verify-etf", path, *flags)
        assert (code, err) == (0, "")
        assert invoke(capsys, "etf-to-srg", path, "-o", out, *flags) == (0, record, "")
    invoke(capsys, "generate", "paley", str(q), "-o", paley)
    with open(out, "rb") as got, open(paley, "rb") as want:
        assert got.read() == want.read()


def _skewed_paley_13_gram(capsys, tmp_path, delta: float) -> tuple[str, str, str]:
    """Paley(13), its Gram file from `srg-to-etf --gram-only`, and that Gram
    with G(0,1) raised by delta, as paths."""
    graph, gram, skewed = (str(tmp_path / name) for name in ("g.txt", "G.txt", "S.txt"))
    invoke(capsys, "generate", "paley", "13", "-o", graph)
    invoke(capsys, "srg-to-etf", graph, "--gram-only", "-o", gram)
    g = read_matrix(gram)
    g[0, 1] += delta
    write_matrix(skewed, g)
    return graph, gram, skewed


@pytest.mark.parametrize("delta, tol", [(5e-10, None), (5e-9, None), (1e-6, "1e-4")])
def test_a_gram_file_skewed_within_tol_is_verified_as_a_gram(
    capsys, tmp_path, monkeypatch, delta, tol
):
    # Averaged with its transpose, the file is within tol of the ETF: every
    # command reads it as the unskewed Gram, up to beta's last digits.
    if tol:
        monkeypatch.setenv("ETFKIT_TOL", tol)
    graph, gram, skewed = _skewed_paley_13_gram(capsys, tmp_path, delta)
    out = str(tmp_path / "out.txt")
    for argv in (["verify-etf"], ["etf-to-srg", "-o", out]):
        expected = record_to_dict(invoke(capsys, argv[0], gram, *argv[1:])[1])
        code, text, err = invoke(capsys, argv[0], skewed, *argv[1:])
        assert (code, err) == (0, "")
        record = record_to_dict(text)
        assert float(record.pop("beta")) == pytest.approx(float(expected.pop("beta")), abs=delta)
        assert record == expected
    with open(out, "rb") as got, open(graph, "rb") as want:
        assert got.read() == want.read()
    assert invoke(capsys, "naimark", skewed, "-o", out) == (0, "", "")


def test_a_gram_file_skewed_beyond_tol_is_refused_naming_its_skew(capsys, tmp_path):
    # Read as a frame, the file fails too; its skew, not a column norm, is
    # what keeps it from being a Gram.
    _, gram, skewed = _skewed_paley_13_gram(capsys, tmp_path, 2e-8)
    message = "error: G is not symmetric: |G(0,1) - G(1,0)| = {} exceeds tol {}\n"
    assert invoke(capsys, "verify-etf", skewed) == (
        1, "", message.format("1.9999999989472883e-08", "1.000e-08")
    )
    negated = read_matrix(gram)
    negated[0, 1] *= -1
    write_matrix(skewed, negated)
    for flag in ([], ["--json"]):
        assert invoke(capsys, "verify-etf", skewed, *flag) == (
            1, "", message.format("0.5547001962252291", "1.000e-08")
        )


def test_a_gram_file_skewed_past_the_floats_is_named_with_warnings_as_errors(capsys, tmp_path):
    # 1e308 - -1e308 overflows: the skew is inf, and no RuntimeWarning leaks.
    path = tmp_path / "huge.txt"
    path.write_text("2 2\n1 1e308\n-1e308 1\n")
    message = "error: G is not symmetric: |G(0,1) - G(1,0)| = inf exceeds tol 1.000e-08\n"
    assert invoke(capsys, "verify-etf", str(path)) == (1, "", message)


@pytest.mark.parametrize("delta", [5e-7, 2e-6])
def test_a_symmetric_gram_file_off_its_unit_diagonal_is_named_by_that_entry(
    capsys, tmp_path, delta
):
    # Past tol, the file is read as a frame and fails; its G(0,0), nearer 1
    # than any column's squared norm, is what keeps it from being a Gram.
    _, gram, shifted = _skewed_paley_13_gram(capsys, tmp_path, 0.0)
    g = read_matrix(gram)
    g[0, 0] += delta
    write_matrix(shifted, g)
    for argv in (["verify-etf"], ["naimark", "-o", str(tmp_path / "out.txt")]):
        assert invoke(capsys, argv[0], shifted, *argv[1:]) == (
            1, "", f"error: G(0,0) = {1 + delta!r} != 1\n"
        )


def test_a_square_frame_with_unit_diagonal_is_not_taken_for_a_skewed_gram(capsys, tmp_path):
    # A rotation by 1e-4 has a diagonal within 1e-6 of 1 and a skew of 2e-4,
    # so it is read as a frame, and as a frame it is an orthonormal basis.
    path = str(tmp_path / "r.txt")
    c, s = math.cos(1e-4), math.sin(1e-4)
    write_matrix(path, [[c, -s], [s, c]])
    code, out, err = invoke(capsys, "verify-etf", path)
    assert (code, err) == (0, "")
    record = record_to_dict(out)
    assert (record["m"], record["n"], record["alpha"]) == ("2", "2", "1")


def test_oversized_graph_header_exits_2(capsys, tmp_path):
    # numpy refuses the 10^8 x 10^8 allocation up front; nothing is allocated.
    # Both graph parsers ask for one byte per entry, so the message names int8.
    path = tmp_path / "huge.txt"
    path.write_text("100000000\n")
    code, out, err = invoke(capsys, "verify-srg", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "allocate" in err and "int8" in err


# The child's peak is VmHWM, the high-water RSS of its own address space.
# ru_maxrss will not do: exec folds the old address space's high-water mark
# into it, and a child spawned by vfork shares the parent's, so under pytest
# it reads the test process's size.
_PEAK_RSS = """
import contextlib, io, json, sys
from etfkit.cli import run
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = run(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps([code, out.getvalue(), err.getvalue(), peak]))
"""


def _run_in_child(*argv) -> tuple[int, str, str, float]:
    """Run one CLI command in a fresh Python with one BLAS thread:
    (exit code, stdout, stderr, the child's peak RSS in MiB)."""
    src = os.path.dirname(os.path.dirname(ek.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *argv],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    code, out, err, peak = json.loads(proc.stdout)
    return code, out, err, peak / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads the child's /proc/self/status")
@pytest.mark.parametrize("command, text, code, message", [
    ("verify-srg", "5000\n", 0, None),
    ("verify-srg", "20000\n", 0, None),
    ("spectrum", "5000\n", 1, "error: (lambda-mu)^2 + 4(k-mu) = 0 is not positive\n"),
    ("verify-srg", "20000\n1 2\n", 1, "error: vertex 2 has degree 0 but vertex 0 has 1\n"),
], ids=["verify-5000", "verify-20000", "spectrum-5000", "not-regular-20000"])
def test_graphs_with_an_empty_pair_class_cost_only_their_byte_matrix(
    tmp_path, command, text, code, message
):
    # Degrees decide regularity, and the empty graph returns before any float
    # copy: at v = 5000 a float32 A and its square take 100 MB each. The
    # v x v int8 matrix's pages that no edge writes stay unmapped (np.zeros).
    path = tmp_path / "g.txt"
    path.write_text(text)
    got_code, out, err, peak_mib = _run_in_child(command, str(path))
    assert (got_code, err) == (code, message or "")
    if code == 0:
        record = record_to_dict(out)
        assert [record[key] for key in ("v", "k", "lambda", "mu")] == [text.strip(), "0", "0", "0"]
    else:
        assert out == ""
    assert peak_mib < 100


@pytest.mark.skipif(sys.platform != "linux", reason="reads the child's /proc/self/status")
def test_verify_srg_at_the_largest_packed_v_peaks_no_higher_than_before(tmp_path):
    # Paley(2029) takes the packed path count, which holds 9 bytes an entry
    # (37 MB) as the syrk's square does: int8 A, float32 A, the half-size
    # packed A and its product, whose int32 copy and shifted high digits take
    # the place of the arrays freed before them. The command peaked at 91.6 MiB when the packed
    # path was added and at 69.2 MiB with the decode; the graph reader, not
    # verify_srg, sets that peak, so
    # test_verify_srg_holds_8_bytes_an_entry_beyond_its_input pins
    # verify_srg's own allocations.
    path = tmp_path / "g.txt"
    write_graph(path, ek.paley(2029))
    code, out, err, peak_mib = _run_in_child("verify-srg", str(path))
    assert (code, err) == (0, "")
    record = record_to_dict(out)
    assert [record[key] for key in ("v", "k", "lambda", "mu")] == ["2029", "1014", "506", "507"]
    assert peak_mib < 96


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


@pytest.mark.parametrize("argv, message", [
    (["params", "etf", "5", "3"], "need 1 <= m < n, got m=5, n=3"),
    (["params", "srg", "0", "0"], "v=0 must be positive"),
    (["params", "srg", "5", "7"], "degree k=7 outside 0..v-1=4"),
    (["generate", "fixture6x16", "5", "-o", os.devnull], "generate fixture6x16 takes no extra argument"),
    (["generate", "paley", "-o", os.devnull], "generate paley requires a modulus q"),
], ids=["etf-m-above-n", "srg-no-vertex", "srg-k-above-v", "fixture-with-q", "paley-without-q"])
def test_refused_arguments_exit_2_naming_them(capsys, argv, message):
    assert invoke(capsys, *argv) == (2, "", f"error: {message}\n")


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

    # A tolerance must be a finite positive number, written as a matrix
    # file's entry must be: an ASCII decimal with no digit separator.
    for raw in ("not-a-number", "nan", "inf", "1e400", "1_0", "\u0661e-2"):
        monkeypatch.setenv("ETFKIT_TOL", raw)
        code, out, err = invoke(capsys, "verify-etf", str(path))
        assert (code, out) == (2, "")
        assert f"error: bad ETFKIT_TOL value {raw!r}" in err
