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
to exit codes. The environment variable ETFKIT_TOL, a finite positive
ASCII decimal as in matrix files, overrides the default 1e-8 tolerance.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
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
    _check_unit_columns,
    _shape_text,
    _synthesize,
    gram,
    naimark_complement_gram,
    verify_etf_gram,
    welch_bound,
)
from .generators import fano_plane, fixture_6x16, pairs_design, paley, steiner_etf
from .graphs import AdjacencyMatrix, complement, spectrum, verify_srg
from .linalg import SymMatrix, _check_tol

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
    (rows, cols), body = _header_and_body(lines, path, "rows cols")
    body = list(body)
    parse = float
    out = []
    for lineno, line in body[:rows]:
        tokens = line.split()
        if len(tokens) != cols:
            raise FileFormatError(
                f"{path}: line {lineno}: expected {cols} entries, got {len(tokens)}"
            )
        if not out and 2 * len(set(tokens)) <= cols:
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
    if len(body) < rows:
        raise FileFormatError(
            f"{path}: line {len(lines) + 1}: expected {rows} data rows, "
            f"found {len(body)}"
        )
    if len(body) > rows:
        raise FileFormatError(
            f"{path}: line {body[rows][0]}: {len(body)} data rows exceed "
            f"declared {rows}"
        )
    return np.stack(out)


def _header_and_body(lines: list[str], path: str, header: str):
    """The rule both file formats share: the header line holds the positive
    integers that `header` names ("rows cols" or "v"), and blank lines after
    it are skipped. Returns the header's integers and, lazily, each
    non-blank line after it with its 1-based line number."""
    if not lines:
        raise FileFormatError(f"{path}: empty file")
    tokens = lines[0].split()
    if len(tokens) != len(header.split()):
        raise FileFormatError(f"{path}: line 1: expected header '{header}'")
    values = [_parse_positive_int(tok, path, 1) for tok in tokens]
    numbered = enumerate(itertools.islice(lines, 1, None), start=2)
    return values, ((lineno, line) for lineno, line in numbered if line.strip())


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

    The file is read once and its bytes are parsed in one vectorised pass:
    a plain file's bad header raises before any decoding, and one scan of
    the body, a block at a time, decides the line rule and decodes the
    numbers four bytes at a time. Input that pass does not take as plainly
    well formed, a token of more than 8 digits included, is decoded and
    goes to the line-by-line parser, which alone names a bad edge line.
    Both parsers fill one v x v int8 matrix, setting (i, j) and (j, i) for
    each edge 1 <= i < j <= v, so it is an adjacency matrix by construction.
    """
    data = _read_bytes(path)
    adj = _graph_from_bytes(data, path)
    if adj is None:
        adj = _graph_from_lines(_decode(data, path).splitlines(), path)
    return AdjacencyMatrix._valid(adj)


# Over these bytes alone a token is a run of ASCII digits, and lines and
# tokens split as `str.splitlines` and `str.split` split them.
_PLAIN_GRAPH_BYTES = b"0123456789 \t\n"

# `_scan_body` takes this many bytes at a time, so its masks and windows stay
# small beside the numbers it fills.
_WINDOW_BLOCK_BYTES = 1 << 18


def _graph_from_bytes(data: bytes, path: str) -> np.ndarray | None:
    """The int8 adjacency matrix of a graph file, or None when the file holds
    anything unusual: a byte outside _PLAIN_GRAPH_BYTES, a non-blank line
    without exactly two tokens, a token of more than 8 digits, an edge out
    of range or not i < j, or a duplicate edge. A bad header raises (see
    `_header_and_body`). The matrix is allocated once the body is accepted."""
    if data.translate(None, _PLAIN_GRAPH_BYTES):
        return None
    start = data.find(b"\n") + 1 or len(data) + 1  # where the body starts
    (v,), _ = _header_and_body([data[: start - 1].decode()] if data else [], path, "v")
    edges = _scan_body(data, start)
    if edges is None:
        return None

    adj = np.zeros((v, v), dtype=np.int8)
    if not edges.size:
        return adj
    edges -= 1  # 0-based, in place: the pairs (i, j) are views into it
    i, j = edges[0::2], edges[1::2]
    if i.min() < 0 or j.max() >= v or not np.all(i < j):
        return None
    flat = adj.reshape(-1)  # v * v fits in an intp, since adj was allocated
    flat[i * v + j] = flat[j * v + i] = 1
    if np.count_nonzero(adj) != edges.size:  # a duplicate edge
        return None
    return adj


def _scan_body(data: bytes, start: int) -> np.ndarray | None:
    """The numbers of the plain body data[start:] as int64, from one scan of
    its token ends, taken _WINDOW_BLOCK_BYTES at a time; None when a line
    holds neither 0 nor 2 tokens or a token has more than 8 digits.

    Line rule: in the token ends and newlines in file order, with a newline
    before and after, every line holds 0 or 2 tokens exactly when each token
    end has exactly one token end next to it. A block's events are checked
    after the last two of the blocks before it, and its last waits for the
    next block.

    Numbers: each read from the 4 bytes that end its token, gathered as one
    little-endian uint32 from an unaligned view of the bytes and decoded by
    `_decode_windows`. A window of 4 digits with a digit before it ends a
    longer token, whose high digits are read alike from the window that ends
    at that digit. Every token starts at or after `start`, which is at least
    3, so neither window starts before the bytes.
    """
    if start < 3:  # a one-byte header: the first window would start before the bytes
        data, start = b"\n" + data, 3
    # Bytes too few for a window hold no token after their header.
    windows = np.ndarray((max(len(data) - 3, 0),), dtype="<u4", buffer=data, strides=(1,))
    chars = np.frombuffer(data, dtype=np.uint8)
    # At most one token in two bytes; the pages past the last stay unwritten.
    numbers = np.empty((len(data) - start + 1) // 2, dtype=np.int64)
    events = np.zeros(2, dtype=bool)  # the last two events, True at a token end
    count = 0
    for lo in range(start, len(data), _WINDOW_BLOCK_BYTES):
        block = chars[lo : lo + _WINDOW_BLOCK_BYTES]
        last = block > ord(" ")  # the digits: tab, newline and space sort below them
        after = chars[lo + 1 : lo + 1 + block.size]
        last[: after.size] &= after <= ord(" ")  # the last byte of each token
        is_event = block == ord("\n")
        is_event |= last
        events = np.concatenate((events[-2:], np.compress(is_event, last)))
        if np.any(events[1:-1] & (events[:-2] == events[2:])):
            return None
        at = np.flatnonzero(last)
        at += lo - 3  # where each window starts
        w = windows[at]  # indexing, not np.take, which copies all of `windows` first
        full = np.flatnonzero(_decode_windows(w))
        longer = full[chars[at[full] - 1] > ord(" ")]  # the tokens of 5 digits or more
        if longer.size:
            at = at[longer] - 4  # where the window of their high digits starts
            high = windows[at]
            if np.any(chars[at[_decode_windows(high)] - 1] > ord(" ")):
                return None  # a token of more than 8 digits
            high *= np.uint32(10_000)
            w[longer] += high  # below 10^8: no uint32 wraps
        numbers[count : count + w.size] = w
        count += w.size
    if events[-1] and not events[-2]:  # the last token end, before the newline after
        return None
    return numbers[:count]


def _decode_windows(w: np.ndarray) -> np.ndarray:
    """Replace each little-endian uint32 window in `w`, the 4 bytes that end
    a token with its last digit high, by the number that the token's digits
    among them make. Returns a mask, True where all 4 bytes are digits.

    Over _PLAIN_GRAPH_BYTES, bit 0x10 is set on exactly the digits: flagging
    every other byte and spreading the flags to the bytes below them zeroes
    all that comes before the token, and those zeros read as leading zeros.
    All arithmetic is on uint32 arrays and np.uint32 scalars, and wraps where
    it overflows, under numpy 1.24's casting rules as under NEP 50's.
    """
    flags = w & np.uint32(0x10101010)
    flags ^= np.uint32(0x10101010)  # 0x10 on each byte that is no digit
    flags |= flags >> np.uint32(8)
    flags |= flags >> np.uint32(16)  # and on every byte below one
    full = flags == 0
    flags >>= np.uint32(4)
    flags *= np.uint32(0x0F)
    flags ^= np.uint32(0x0F0F0F0F)  # 0x0F on each byte of the token
    w &= flags  # its digits, 0 to 9 a byte, the last one high
    w *= np.uint32(10 << 8 | 1)  # bytes 1 and 3: the two pairs of digits
    w >>= np.uint32(8)
    w &= np.uint32(0x00FF00FF)
    w *= np.uint32(100 << 16 | 1)  # bytes 2 and 3: the number
    w >>= np.uint32(16)
    return full


def _graph_from_lines(lines: list[str], path: str) -> np.ndarray:
    """Line-by-line graph parser; raises FileFormatError naming the bad line."""
    (v,), body = _header_and_body(lines, path, "v")
    adj = np.zeros((v, v), dtype=np.int8)
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != 2:
            raise FileFormatError(f"{path}: line {lineno}: expected an edge 'i j'")
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


def _frame_half(m: int, n: int, beta: float | None = None) -> dict:
    """The frame half of shape (m, n), whose beta is `welch_bound`'s unless given."""
    beta = welch_bound(m, n) if beta is None else beta
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


def _srg_record(p, shape=None, beta=None) -> dict:
    """`verify-srg`'s record of the graph parameters p, or, given the shape
    and beta of a conversion's report, that of both conversions."""
    record = _graph_half(p.v, p.k, p.lam, p.mu, is_etf_eligible(p))
    if record["eligible"]:  # mu = k/2 makes the frame's dimension integral
        shape = shape or srg_params_to_etf_params(p.v, p.k)
        record |= _frame_half(shape.m, shape.n, beta)
    return record


def _etf_record(m: int, n: int, beta: float | None = None) -> dict:
    """`params etf`'s record of the shape (m, n), or, given the beta of a
    verified frame, `verify-etf`'s."""
    graph = {}
    if m < n:  # for a verified frame, Seidel's identity makes the graph's parameters integral
        p = etf_params_to_srg_params(EtfShape(m, n))
        graph = _graph_half(p.v, p.k, p.lam, p.mu, True)
    return graph | _frame_half(m, n, beta)


# ------------------------------------------------------------- subcommands


def _load_gram_or_frame(
    path: str, tol: float
) -> tuple[SymMatrix, np.ndarray | None, GramSummary]:
    """Read and verify a matrix file as (Gram, frame or None, summary).

    A square matrix that `SymMatrix.symmetrized` accepts within `tol` is
    verified as a Gram matrix; unless it fails the unit diagonal, that is
    the verdict. Anything else is a synthesis matrix: `_check_unit_columns`,
    then verification of its Gram. Failing that, it is given the Gram
    reading's DiagonalNotUnit when its diagonal is nearer 1 than the worst
    squared column norm, and, when square, skewed and with a diagonal within
    `tol` of 1, `symmetrized`'s refusal as a GramVerificationError.
    """
    a = read_matrix(path)
    skew = None  # `symmetrized`'s refusal of a square file
    gram_verdict = None  # the Gram reading's DiagonalNotUnit, if it was made
    if a.shape[0] == a.shape[1]:
        try:
            g = SymMatrix.symmetrized(a, tol)
        except ValueError as exc:  # not symmetric within tol
            skew = exc
        else:
            try:
                return g, None, verify_etf_gram(g, tol)
            except DiagonalNotUnit as exc:  # perhaps a square frame: read its columns
                gram_verdict = exc
    g = gram(a)
    try:
        _check_unit_columns(a, g.data.diagonal(), tol)
        return g, a, verify_etf_gram(g, tol)
    except (ColumnsNotUnitNorm, GramVerificationError):
        off = np.max(np.abs(a.diagonal() - 1.0))  # NaN when any entry is
        if skew is not None and off <= tol:  # a Gram's diagonal: its columns are no frame's
            raise GramVerificationError(str(skew)) from None
        if gram_verdict is not None and off < np.max(np.abs(g.data.diagonal() - 1.0)):
            raise gram_verdict from None
        raise


def _cmd_welch(args, tol: float) -> None:
    print(repr(welch_bound(args.m, args.n)))


def _cmd_params(args, tol: float) -> None:
    if args.kind == "etf":
        shape = EtfShape(args.a, args.b)  # refuses m >= n, which _etf_record would print
        record = _etf_record(shape.m, shape.n)
    else:
        v, k = args.a, args.b
        shape = srg_params_to_etf_params(v, k)
        # An ineligible (v, k) still prints its half-integral or negative
        # lambda and mu, which etf_params_to_srg_params refuses.
        lam2, mu2, eligible = _doubled_lambda_mu(v, k)
        graph = _graph_half(v, k, _halved(lam2), _halved(mu2), eligible)
        record = graph | _frame_half(shape.m, shape.n)
    _emit(record, args.json)


def _cmd_verify_etf(args, tol: float) -> None:
    _, _, summary = _load_gram_or_frame(args.matrix, tol)
    _emit(_etf_record(summary.m, summary.n, summary.beta), args.json)


def _cmd_verify_srg(args, tol: float) -> None:
    _emit(_srg_record(verify_srg(read_graph(args.graph))), args.json)


def _cmd_etf_to_srg(args, tol: float) -> None:
    g, _, summary = _load_gram_or_frame(args.matrix, tol)
    b, report = _etf_gram_to_srg(g, summary)
    write_graph(args.output, b)
    _emit(_srg_record(report.params, report.shape, report.beta), args.json)


def _cmd_srg_to_etf(args, tol: float) -> None:
    b = read_graph(args.graph)
    convert = srg_to_etf_gram_minus if args.minus else srg_to_etf_gram
    g, report = convert(b, tol)
    if args.gram_only:
        write_matrix(args.output, g.data)
    else:
        write_matrix(args.output, _synthesize(g, report.shape.m))
    _emit(_srg_record(report.params, report.shape, report.beta), args.json)


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
        if raw_tol and not _is_decimal(raw_tol):
            raise ValueError  # read as a matrix file's entry is
        tol = _check_tol(float(raw_tol)) if raw_tol else DEFAULT_TOL
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
