"""Command-line front end and text file formats.

Matrix files: a header line "rows cols", then one line per row of
whitespace-separated decimals. Graph files: a header line "v", then one
line per edge "i j" with 1-based indices and i < j; edges are written in
lexicographic order so canonical files round-trip byte for byte.

Records: a graph half "v k lambda mu deviation eligible" then a frame half
"m n alpha beta", in that order, as "key = value" lines or, with --json,
as one JSON object with the same keys and values. Booleans print as
true/false, ints exactly, whole floats below 1e15 as integers and other
floats as Python's shortest repr. `spectrum` prints text only.

Exit codes: 0 on success, 1 on domain errors (the input is not an ETF,
not an SRG, not eligible, parameters non-integral, ...), 2 on I/O and
usage errors and on inputs too large to allocate. `run` alone maps errors
to exit codes. The environment variable ETFKIT_TOL overrides the default
1e-8 verification tolerance.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from .correspondence import (
    EtfShape,
    _doubled_lambda_mu,
    _etf_gram_to_srg,
    etf_params_to_srg_params,
    is_etf_eligible,
    srg_params_to_etf_params,
    srg_to_etf_gram,
    srg_to_etf_gram_minus,
)
from .errors import ColumnsNotUnitNorm, DiagonalNotUnit, EtfkitError, GramVerificationError
from .frames import (
    DEFAULT_TOL,
    GramSummary,
    _shape_text,
    _synthesize,
    gram,
    naimark_complement_gram,
    verify_etf_gram,
    welch_bound,
)
from .generators import fano_plane, fixture_6x16, pairs_design, paley, steiner_etf
from .graphs import AdjacencyMatrix, complement, spectrum, verify_srg
from .linalg import SymMatrix

__all__ = ["run", "main", "read_matrix", "write_matrix", "read_graph", "write_graph"]


class FileFormatError(Exception):
    """Malformed matrix or graph file; message names the offending line."""


# ---------------------------------------------------------------- file I/O


def read_matrix(path: str) -> np.ndarray:
    """Parse a matrix file; raises FileFormatError naming the bad line.

    Each row is filled in one `np.fromiter` pass of `float` over its
    tokens. When the first row holds at most cols/2 distinct tokens, as a
    Gram file's rows hold 2 or 3, each distinct token is parsed only once.
    Entries are ASCII decimals (or nan and inf): `float` also reads digit
    separators and other scripts' digits, which are refused. Each row is
    kept once it has shown `cols` entries and the rows are stacked at the
    end, so memory grows with the rows the file holds, not with its header.
    """
    lines = _decode(_read_bytes(path), path).splitlines()
    if not lines:
        raise FileFormatError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 2:
        raise FileFormatError(f"{path}: line 1: expected header 'rows cols'")
    rows, cols = (_parse_positive_int(tok, path, 1) for tok in header)
    body = [
        (lineno, line)
        for lineno, line in enumerate(lines[1:], start=2)
        if line.strip()
    ]
    parse = float
    out = []
    for r in range(rows):
        if r >= len(body):
            raise FileFormatError(
                f"{path}: line {len(lines) + 1}: expected {rows} data rows, "
                f"found {len(body)}"
            )
        lineno, line = body[r]
        tokens = line.split()
        if len(tokens) != cols:
            raise FileFormatError(
                f"{path}: line {lineno}: expected {cols} entries, got {len(tokens)}"
            )
        if r == 0 and 2 * len(set(tokens)) <= cols:
            parse = _FloatTable().__getitem__
        try:
            if not line.isascii() or "_" in line:
                raise ValueError  # `float` reads some tokens no decimal holds
            out.append(np.fromiter(map(parse, tokens), dtype=float, count=cols))
        except ValueError:
            for token in tokens:  # the first token refused
                if not _is_decimal(token):
                    raise FileFormatError(
                        f"{path}: line {lineno}: bad entry {token!r}"
                    ) from None
            # Only the whitespace between the tokens was not ASCII.
            out.append(np.fromiter(map(float, tokens), dtype=float, count=cols))
    if len(body) > rows:
        raise FileFormatError(
            f"{path}: line {body[rows][0]}: {len(body)} data rows exceed "
            f"declared {rows}"
        )
    return np.stack(out)


def _is_decimal(token: str) -> bool:
    """Whether `float` reads the token and it holds only ASCII, no `_`."""
    if not token.isascii() or "_" in token:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


class _FloatTable(dict):
    """`float` of each token looked up, parsed at its first lookup only."""

    def __missing__(self, token: str) -> float:
        value = self[token] = float(token)
        return value


def write_matrix(path: str, matrix) -> None:
    """Write `rows cols`, then each row as the `repr` of its entries.

    When the first row holds few distinct bit patterns, as a Gram matrix's
    rows do, each distinct value's `repr` is taken once and the file is
    laid out from a table of them; otherwise row by row. Both write the
    same bytes.
    """
    a = np.asarray(matrix, dtype=float)
    rows, cols = a.shape
    with _overwrite(path) as fh:
        fh.write(f"{rows} {cols}\n".encode())
        bits = a.view(np.int64)  # -0.0 and 0.0, and NaN payloads, stay apart
        if not a.size or 2 * len(set(bits[0].tolist())) > cols:
            for row in a.tolist():
                fh.write((" ".join(map(repr, row)) + "\n").encode())
            return
        distinct, index = np.unique(bits.ravel(), return_inverse=True)
        words = [repr(x).encode() for x in distinct.view(np.float64).tolist()]
        index = index.reshape(rows, cols)
        index[:, -1] += len(words)  # the last entry of a row ends the line
        fh.write(_layout([w + b" " for w in words] + [w + b"\n" for w in words], index))


def _layout(pieces: list[bytes], index: np.ndarray) -> bytes:
    """The pieces that `index` names, in its order, joined into one string.

    numpy holds the pieces at one width, padding the shorter ones with NUL
    bytes, so picking them is one vectorised take; the padding is deleted
    after. No piece may itself hold a NUL byte.
    """
    return np.take(np.array(pieces), index).tobytes().translate(None, b"\0")


def read_graph(path: str) -> AdjacencyMatrix:
    """Parse an edge-list graph file; raises FileFormatError on bad input.

    The file is read once and its bytes are parsed in one vectorised pass.
    Input that pass does not take as plainly well formed is decoded and goes
    to the line-by-line parser, which alone names a bad line. Both parsers
    set (i, j) and (j, i) for each edge 1 <= i < j <= v, so their matrix is
    an adjacency matrix by construction and is not checked again.
    """
    data = _read_bytes(path)
    adj = _graph_from_bytes(data)
    if adj is None:
        adj = _graph_from_lines(_decode(data, path).splitlines(), path)
    return AdjacencyMatrix._valid(adj)


# Over these bytes alone a token is a run of ASCII digits, and lines and
# tokens split as `str.splitlines` and `str.split` split them; a token of at
# most 18 digits is below 10^18 < 2^63, so `int` and an int64 parse agree.
_PLAIN_GRAPH_BYTES = b"0123456789 \t\n"
_MAX_PLAIN_DIGITS = 18


def _graph_from_bytes(data: bytes) -> np.ndarray | None:
    """The int8 adjacency matrix of a graph file, or None when the file holds
    anything unusual: a byte outside _PLAIN_GRAPH_BYTES, a bad header,
    a token of more than 18 digits, a non-blank line without exactly two
    tokens, an edge out of range or not i < j, a duplicate edge, or a
    matrix too large to allocate."""
    if data.translate(None, _PLAIN_GRAPH_BYTES):
        return None
    header, _, body = data.partition(b"\n")
    header_tokens = header.split()
    if len(header_tokens) != 1 or len(header_tokens[0]) > _MAX_PLAIN_DIGITS:
        return None
    v = int(header_tokens[0])
    if v < 1:
        return None
    n_tokens = _plain_token_count(body)
    if n_tokens is None:
        return None

    try:
        adj = np.zeros((v, v), dtype=np.int8)
    except MemoryError:  # the line-by-line parser reports the int64 size
        return None
    if not n_tokens:
        return adj
    edges = np.fromstring(body, dtype=np.int64, sep=" ")
    if edges.size != n_tokens:
        return None
    edges -= 1  # 0-based, in place: the pairs (i, j) are views into it
    i, j = edges[0::2], edges[1::2]
    if i.min() < 0 or j.max() >= v or not np.all(i < j):
        return None
    flat = adj.reshape(-1)  # v * v fits in an intp, since adj was allocated
    flat[i * v + j] = flat[j * v + i] = 1
    if np.count_nonzero(adj) != edges.size:  # a duplicate edge
        return None
    return adj


def _plain_token_count(body: bytes) -> int | None:
    """The number of tokens in the body of a plain graph file, or None when a
    token has more than _MAX_PLAIN_DIGITS digits or a line holds neither 0
    nor 2 tokens. The body holds only _PLAIN_GRAPH_BYTES. Its byte masks
    are freed on return, before the caller allocates the matrix and edges."""
    chars = np.frombuffer(body, dtype=np.uint8)
    digit = chars > ord(" ")  # tab, newline and space all sort below the digits
    run = digit  # run[p]: the bytes p..p+w are all digits, w the widths so far
    for width in (1, 2, 4, 8, 3):  # w = 1, 3, 7, 15, then _MAX_PLAIN_DIGITS
        run = run[:-width] & run[width:]
    if run.any():  # a token of more than _MAX_PLAIN_DIGITS digits
        return None
    last = digit  # the last byte of each token (`digit` is not read again)
    last[:-1] &= ~digit[1:]
    # The token ends and newlines in file order, marked True at a token end,
    # with a newline before and after: every line holds 0 or 2 tokens exactly
    # when each token end has exactly one token end next to it.
    events = chars == ord("\n")
    events |= last
    is_end = np.zeros(np.count_nonzero(events) + 2, dtype=bool)
    is_end[1:-1] = np.compress(events, last)
    if np.any(is_end[1:-1] & (is_end[:-2] == is_end[2:])):
        return None
    return np.count_nonzero(is_end)


def _graph_from_lines(lines: list[str], path: str) -> np.ndarray:
    """Line-by-line graph parser; raises FileFormatError naming the bad line."""
    if not lines:
        raise FileFormatError(f"{path}: empty file")
    if len(lines[0].split()) != 1:
        raise FileFormatError(f"{path}: line 1: expected header 'v'")
    v = _parse_positive_int(lines[0].strip(), path, 1)
    adj = np.zeros((v, v), dtype=np.int64)
    for offset, line in enumerate(lines[1:]):
        if not line.strip():
            continue
        lineno = offset + 2
        tokens = line.split()
        if len(tokens) != 2:
            raise FileFormatError(
                f"{path}: line {lineno}: expected an edge 'i j'"
            )
        i, j = (_parse_positive_int(tok, path, lineno) for tok in tokens)
        if not (1 <= i < j <= v):
            raise FileFormatError(
                f"{path}: line {lineno}: edge ({i},{j}) needs 1 <= i < j <= {v}"
            )
        if adj[i - 1, j - 1]:
            raise FileFormatError(f"{path}: line {lineno}: duplicate edge ({i},{j})")
        adj[i - 1, j - 1] = adj[j - 1, i - 1] = 1
    return adj


def write_graph(path: str, graph: AdjacencyMatrix) -> None:
    """Write the edges i < j in lexicographic order, in one vectorised pass."""
    v = graph.v
    # The edges i < j, where the 0/1 entry A(i, j) exceeds [j <= i], as a
    # bool mask (one byte per entry, not an int64 copy of A). Its row-major
    # order is lexicographic, and flat index f is the pair (f // v, f % v).
    flat = np.flatnonzero(np.greater(graph._entries, np.tri(v, dtype=bool)))
    # Line "i j" is piece i ("i " with i 1-based), then piece j + v ("j\n").
    index = np.empty((flat.size, 2), dtype=np.intp)
    np.divmod(flat, v, out=(index[:, 0], index[:, 1]))
    index[:, 1] += v
    del flat  # so that the layout's copies can take its memory
    names = [str(x).encode() for x in range(1, v + 1)]
    with _overwrite(path) as fh:
        fh.write(f"{v}\n".encode())
        fh.write(_layout([x + b" " for x in names] + [x + b"\n" for x in names], index))


@contextlib.contextmanager
def _overwrite(path: str):
    """A binary file open on `path` for writing from its start; on leaving,
    a regular file is cut to the bytes written.

    The file is not truncated on open (O_TRUNC): on ext4, truncating a
    file that holds data frees its blocks, which takes milliseconds where
    writing the same bytes in place takes a fraction of one, so every
    command that rewrites an existing output would pay it. Cutting after
    the write gives the bytes, inode, links and mode that truncating
    gives. Devices and pipes (`/dev/null`, FIFOs) are not cut, as O_TRUNC
    leaves them alone. The price is crash safety: until the kernel writes
    the new bytes back, a system crash can leave old bytes under the new
    length (README, "File formats").
    """
    def untruncated(name, flags: int) -> int:  # the flags `open` would use, but O_TRUNC
        return os.open(name, flags & ~os.O_TRUNC, 0o666)

    with open(path, "wb", opener=untruncated) as fh:
        size = os.fstat(fh.fileno()).st_size  # 0 for devices and pipes
        try:
            yield fh
        finally:  # a file no longer than what was written is already cut
            if size and fh.tell() < size:  # a pipe cannot tell(): ask only a file
                fh.truncate()


def _read_bytes(path: str) -> bytes:
    """The file's bytes, with CRLF and CR line ends read as LF (text mode's
    universal newlines)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _decode(data: bytes, path: str) -> str:
    """The bytes decoded as UTF-8; a byte that is not UTF-8 is named by line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines are numbered as the readers number them, by `str.splitlines`.
        lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise FileFormatError(
            f"{path}: line {lineno}: bad UTF-8 byte 0x{data[exc.start]:02x} ({exc.reason})"
        ) from None


def _parse_positive_int(token: str, path: str, lineno: int) -> int:
    try:
        if not token.isascii() or "_" in token:
            raise ValueError  # `int` also reads these, but no decimal holds them
        value = int(token)
    except ValueError:
        raise FileFormatError(
            f"{path}: line {lineno}: bad integer {token!r}"
        ) from None
    if value < 1:
        raise FileFormatError(f"{path}: line {lineno}: {value} must be positive")
    return value


# ------------------------------------------------------------ record output


def _literal(value, as_json: bool) -> str:
    """The one number rule: a str is a number literal already (see
    `_halved`), a bool or a Python int prints as it is, any other whole
    number below 1e15 as an int and anything else as a float; by
    `json.dumps` in JSON and in text by `repr`, lower-cased so that True
    and False read true and false."""
    if isinstance(value, str):
        return value
    if not isinstance(value, (bool, int)):
        f = float(value)
        value = int(f) if f.is_integer() and abs(f) < 1e15 else f
    return json.dumps(value) if as_json else repr(value).lower()


def _halved(x: int) -> int | str:
    """x / 2 exactly: an int, or a half-integer as its decimal literal, the
    sign, |x| // 2 and `.5`. Below 2**53 that is the `repr` of the float
    x / 2; above it the float would round."""
    return x // 2 if x % 2 == 0 else f"{'-' if x < 0 else ''}{abs(x) // 2}.5"


def _graph_half(v, k, lam, mu, eligible: bool) -> dict:
    return {
        "v": v, "k": k, "lambda": lam, "mu": mu,
        "deviation": v - 2 * k - 1, "eligible": eligible,
    }


def _frame_half(m: int, n: int, beta: float) -> dict:
    try:
        alpha = n / m
    except OverflowError:  # only parameter arithmetic reaches such a shape
        raise ValueError(f"alpha = n/m overflows a float for shape {_shape_text(m, n)}") from None
    return {"m": m, "n": n, "alpha": alpha, "beta": beta}


def _emit(record: dict, as_json: bool = False) -> None:
    """Print a record as `key = value` lines, or as one JSON object laid
    out as `json.dumps` lays out a dict."""
    if as_json:
        items = (f"{json.dumps(key)}: {_literal(val, True)}" for key, val in record.items())
        print("{" + ", ".join(items) + "}")
    else:
        print("\n".join(f"{key} = {_literal(val, False)}" for key, val in record.items()))


def _emit_report(report, as_json: bool) -> None:
    p, shape = report.params, report.shape
    graph = _graph_half(p.v, p.k, p.lam, p.mu, True)
    _emit(graph | _frame_half(shape.m, shape.n, report.beta), as_json)


# ------------------------------------------------------------- subcommands


def _load_gram_or_frame(
    path: str, tol: float
) -> tuple[SymMatrix, np.ndarray | None, GramSummary]:
    """Read and verify a matrix file as (Gram, frame or None, summary).

    A square matrix symmetric within `tol` with unit diagonal is taken to
    be a Gram matrix; anything else is treated as a synthesis matrix whose
    columns are the frame vectors. A frame whose Gram fails the unit
    diagonal clause raises ColumnsNotUnitNorm naming that column. A square
    file with unit diagonal that fails both is named by its skew: the
    first pair i < j with |G(i,j) - G(j,i)| > tol (GramVerificationError).
    """
    a = read_matrix(path)
    square_unit = (
        a.shape[0] == a.shape[1]
        and float(np.max(np.abs(np.diag(a) - 1.0))) <= max(tol, 1e-6)
    )
    if square_unit:
        with np.errstate(over="ignore"):  # 1e308 - -1e308 is inf: skewed, unwarned
            skewed = ~np.isclose(a, a.T, rtol=0.0, atol=tol, equal_nan=True)
        if not skewed.any():
            g = SymMatrix._valid(a / 2 + a.T / 2)  # symmetrized: the test above decided it
            return g, None, verify_etf_gram(g, tol)
    g = gram(a)
    try:
        return g, a, verify_etf_gram(g, tol)
    except GramVerificationError as exc:
        if square_unit:  # a Gram file skewed past tol: its columns are no frame's
            i, j = divmod(int(np.argmax(np.triu(skewed, 1))), len(a))
            skew = abs(float(a[i, j]) - float(a[j, i]))  # a Python float: inf, unwarned
            raise GramVerificationError(
                f"G is not symmetric: |G({i},{j}) - G({j},{i})| = {skew!r} "
                f"exceeds tol {tol:.3e}"
            ) from None
        if not isinstance(exc, DiagonalNotUnit):
            raise
    # Name the column, as verification names G(j,j).
    worst = int(np.argmax(np.abs(np.diag(g.data) - 1.0)))
    norm = math.hypot(*a[:, worst].tolist())
    raise ColumnsNotUnitNorm(f"column {worst} has norm {norm!r}, expected 1")


def _cmd_welch(args, tol: float) -> None:
    print(repr(welch_bound(args.m, args.n)))


def _cmd_params(args, tol: float) -> None:
    if args.kind == "etf":
        shape = EtfShape(args.a, args.b)
        p = etf_params_to_srg_params(shape)
        graph = _graph_half(p.v, p.k, p.lam, p.mu, True)
    else:
        v, k = args.a, args.b
        shape = srg_params_to_etf_params(v, k)
        # An ineligible (v, k) still prints its half-integral or negative
        # lambda and mu, which etf_params_to_srg_params refuses.
        lam2, mu2, eligible = _doubled_lambda_mu(v, k)
        graph = _graph_half(v, k, _halved(lam2), _halved(mu2), eligible)
    beta = welch_bound(shape.m, shape.n)
    _emit(graph | _frame_half(shape.m, shape.n, beta), args.json)


def _cmd_verify_etf(args, tol: float) -> None:
    _, _, summary = _load_gram_or_frame(args.matrix, tol)
    graph = {}
    if summary.m < summary.n:  # Seidel's identity makes the graph's parameters integral
        p = etf_params_to_srg_params(EtfShape(summary.m, summary.n))
        graph = _graph_half(p.v, p.k, p.lam, p.mu, True)
    _emit(graph | _frame_half(summary.m, summary.n, summary.beta), args.json)


def _cmd_verify_srg(args, tol: float) -> None:
    p = verify_srg(read_graph(args.graph))
    eligible = is_etf_eligible(p)
    record = _graph_half(p.v, p.k, p.lam, p.mu, eligible)
    if eligible:  # mu = k/2 makes the frame's dimension integral
        shape = srg_params_to_etf_params(p.v, p.k)
        record |= _frame_half(shape.m, shape.n, welch_bound(shape.m, shape.n))
    _emit(record, args.json)


def _cmd_etf_to_srg(args, tol: float) -> None:
    g, _, summary = _load_gram_or_frame(args.matrix, tol)
    b, report = _etf_gram_to_srg(g, summary)
    write_graph(args.output, b)
    _emit_report(report, args.json)


def _cmd_srg_to_etf(args, tol: float) -> None:
    b = read_graph(args.graph)
    convert = srg_to_etf_gram_minus if args.minus else srg_to_etf_gram
    g, report = convert(b, tol)
    if args.gram_only:
        write_matrix(args.output, g.data)
    else:
        write_matrix(args.output, _synthesize(g, report.shape.m))
    _emit_report(report, args.json)


def _cmd_naimark(args, tol: float) -> None:
    g, phi, summary = _load_gram_or_frame(args.matrix, tol)
    comp = naimark_complement_gram(g, summary)
    if phi is None:
        write_matrix(args.output, comp.data)
    else:  # the complement is an (n - m) x n ETF
        write_matrix(args.output, _synthesize(comp, summary.n - summary.m))


def _cmd_complement(args, tol: float) -> None:
    write_graph(args.output, complement(read_graph(args.graph)))


def _cmd_spectrum(args, tol: float) -> None:
    spec = spectrum(verify_srg(read_graph(args.graph)))
    _emit({
        "k": spec.k,
        "gamma_plus": spec.gamma_plus, "mult_plus": spec.mult_plus,
        "gamma_minus": spec.gamma_minus, "mult_minus": spec.mult_minus,
    })


def _cmd_generate(args, tol: float) -> None:
    if args.what == "paley":
        if args.q is None:
            raise ValueError("generate paley requires a modulus q")
        write_graph(args.output, paley(args.q))
    elif args.q is not None:
        raise ValueError(f"generate {args.what} takes no extra argument")
    elif args.what == "fixture6x16":
        write_matrix(args.output, fixture_6x16())
    elif args.what == "steiner-fano":
        write_matrix(args.output, steiner_etf(fano_plane()))
    else:  # steiner-pairs4
        write_matrix(args.output, steiner_etf(pairs_design(4)))


# ------------------------------------------------------------------ driver


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="etfkit",
        description="Verify, convert, and generate equiangular tight frames "
        "and strongly regular graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("welch", help="print the coherence lower bound for (m, n)")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_welch)

    p = sub.add_parser("params", help="parameter arithmetic for one side")
    p.add_argument("kind", choices=("etf", "srg"))
    p.add_argument("a", type=int, help="m (etf) or v (srg)")
    p.add_argument("b", type=int, help="n (etf) or k (srg)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_params)

    p = sub.add_parser("verify-etf", help="verify a frame or Gram matrix file")
    p.add_argument("matrix")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify_etf)

    p = sub.add_parser("verify-srg", help="verify a graph file")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify_srg)

    p = sub.add_parser("etf-to-srg", help="convert a frame to its graph")
    p.add_argument("matrix")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_etf_to_srg)

    p = sub.add_parser("srg-to-etf", help="convert a graph to a frame")
    p.add_argument("graph")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--minus", action="store_true", help="use the negative root")
    p.add_argument(
        "--gram-only", action="store_true", help="write the Gram matrix, not vectors"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_srg_to_etf)

    p = sub.add_parser("naimark", help="complementary frame or Gram matrix")
    p.add_argument("matrix")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_naimark)

    p = sub.add_parser("complement", help="graph complement")
    p.add_argument("graph")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_complement)

    p = sub.add_parser("spectrum", help="closed-form spectrum of a graph file")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("generate", help="write a built-in instance to a file")
    p.add_argument(
        "what", choices=("fixture6x16", "steiner-fano", "steiner-pairs4", "paley")
    )
    p.add_argument("q", type=int, nargs="?", help="modulus for paley")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_generate)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Execute one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)

    raw_tol = os.environ.get("ETFKIT_TOL", "")
    try:
        tol = float(raw_tol) if raw_tol else DEFAULT_TOL
        if tol <= 0:
            raise ValueError
    except ValueError:
        print(f"error: bad ETFKIT_TOL value {raw_tol!r}", file=sys.stderr)
        return 2

    try:
        args.handler(args, tol)
    except EtfkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileFormatError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
