"""Command-line front end and text file formats.

Matrix files: a header line "rows cols", then one line per row of
whitespace-separated decimals. Graph files: a header line "v", then one
line per edge "i j" with 1-based indices and i < j; edges are written in
lexicographic order so canonical files round-trip byte for byte.

Exit codes: 0 on success, 1 on domain errors (the input is not an ETF,
not an SRG, not eligible, parameters non-integral, ...), 2 on I/O and
usage errors. The environment variable ETFKIT_TOL overrides the default
1e-8 verification tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .correspondence import (
    EtfShape,
    etf_params_to_srg_params,
    etf_to_srg,
    is_etf_eligible,
    srg_params_to_etf_params,
    srg_to_etf_gram,
    srg_to_etf_gram_minus,
)
from .errors import EtfkitError
from .frames import (
    DEFAULT_TOL,
    gram,
    naimark_complement_gram,
    synthesize_from_gram,
    verify_etf_gram,
    welch_bound,
)
from .generators import fano_plane, fixture_6x16, pairs_design, paley, steiner_etf
from .graphs import AdjacencyMatrix, complement, deviation, spectrum, verify_srg
from .linalg import SymMatrix

__all__ = ["run", "main", "read_matrix", "write_matrix", "read_graph", "write_graph"]


class FileFormatError(Exception):
    """Malformed matrix or graph file; message names the offending line."""


# ---------------------------------------------------------------- file I/O


def read_matrix(path: str) -> np.ndarray:
    """Parse a matrix file; raises FileFormatError naming the bad line."""
    lines = _read_lines(path)
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
    out = np.empty((rows, cols))
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
        for c, token in enumerate(tokens):
            try:
                out[r, c] = float(token)
            except ValueError:
                raise FileFormatError(
                    f"{path}: line {lineno}: bad entry {token!r}"
                ) from None
    if len(body) > rows:
        raise FileFormatError(
            f"{path}: line {body[rows][0]}: {len(body)} data rows exceed "
            f"declared {rows}"
        )
    return out


def write_matrix(path: str, matrix) -> None:
    a = np.asarray(matrix, dtype=float)
    rows, cols = a.shape
    with open(path, "w") as fh:
        fh.write(f"{rows} {cols}\n")
        for row in a.tolist():
            fh.write(" ".join(map(repr, row)) + "\n")


def read_graph(path: str) -> AdjacencyMatrix:
    """Parse an edge-list graph file; raises FileFormatError on bad input."""
    lines = _read_lines(path)
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
    return AdjacencyMatrix(adj)


def write_graph(path: str, graph: AdjacencyMatrix) -> None:
    edges = np.argwhere(np.triu(graph.data, 1))
    with open(path, "w") as fh:
        fh.write(f"{graph.v}\n")
        for i, j in edges:
            fh.write(f"{i + 1} {j + 1}\n")


def _read_lines(path: str) -> list[str]:
    with open(path) as fh:
        return fh.read().splitlines()


def _parse_positive_int(token: str, path: str, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise FileFormatError(
            f"{path}: line {lineno}: bad integer {token!r}"
        ) from None
    if value < 1:
        raise FileFormatError(f"{path}: line {lineno}: {value} must be positive")
    return value


# ------------------------------------------------------------ record output


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _json_value(value):
    if isinstance(value, bool):
        return value
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return int(f)
    return f


def _emit_record(items: list[tuple[str, object]], as_json: bool) -> None:
    if as_json:
        print(json.dumps({key: _json_value(val) for key, val in items}))
    else:
        for key, val in items:
            print(f"{key} = {_fmt(val)}")


def _record_from_report(report) -> list[tuple[str, object]]:
    p = report.params
    return [
        ("v", p.v),
        ("k", p.k),
        ("lambda", p.lam),
        ("mu", p.mu),
        ("deviation", deviation(p)),
        ("eligible", True),
        ("m", report.shape.m),
        ("n", report.shape.n),
        ("alpha", report.alpha),
        ("beta", report.beta),
    ]


# ------------------------------------------------------------- subcommands


def _load_gram_or_frame(path: str, tol: float) -> tuple[SymMatrix, np.ndarray | None]:
    """Read a matrix file as (Gram, None) or (frame's Gram, frame).

    A square matrix that is symmetric with unit diagonal is taken to be a
    Gram matrix; anything else is treated as a synthesis matrix whose
    columns are the frame vectors.
    """
    a = read_matrix(path)
    if (
        a.shape[0] == a.shape[1]
        and np.allclose(a, a.T, rtol=0.0, atol=1e-10)
        and float(np.max(np.abs(np.diag(a) - 1.0))) <= max(tol, 1e-6)
    ):
        return SymMatrix.symmetrized(a, atol=1e-10), None
    return gram(a), a


def _cmd_welch(args, tol: float) -> int:
    print(repr(welch_bound(args.m, args.n)))
    return 0


def _cmd_params(args, tol: float) -> int:
    if args.kind == "etf":
        shape = EtfShape(args.a, args.b)
        params = etf_params_to_srg_params(shape)
        items = [
            ("v", params.v),
            ("k", params.k),
            ("lambda", params.lam),
            ("mu", params.mu),
            ("deviation", deviation(params)),
            ("eligible", True),
            ("m", shape.m),
            ("n", shape.n),
            ("alpha", shape.n / shape.m),
            ("beta", welch_bound(shape.m, shape.n)),
        ]
    else:
        v, k = args.a, args.b
        shape = srg_params_to_etf_params(v, k)
        if k == 0:
            lam, mu = 0.0, 0.0
            eligible = True
        else:
            lam = (3 * k - v - 1) / 2
            mu = k / 2
            eligible = mu.is_integer() and lam.is_integer() and lam >= 0
        items = [
            ("v", v),
            ("k", k),
            ("lambda", lam),
            ("mu", mu),
            ("deviation", v - 2 * k - 1),
            ("eligible", eligible),
            ("m", shape.m),
            ("n", shape.n),
            ("alpha", shape.n / shape.m),
            ("beta", welch_bound(shape.m, shape.n)),
        ]
    _emit_record(items, args.json)
    return 0


def _cmd_verify_etf(args, tol: float) -> int:
    g, _ = _load_gram_or_frame(args.matrix, tol)
    summary = verify_etf_gram(g, tol)
    items: list[tuple[str, object]] = []
    if summary.m < summary.n:
        try:
            params = etf_params_to_srg_params(EtfShape(summary.m, summary.n))
            items = [
                ("v", params.v),
                ("k", params.k),
                ("lambda", params.lam),
                ("mu", params.mu),
                ("deviation", deviation(params)),
                ("eligible", True),
            ]
        except EtfkitError:
            items = []
    items += [
        ("m", summary.m),
        ("n", summary.n),
        ("alpha", summary.alpha),
        ("beta", summary.beta),
    ]
    _emit_record(items, args.json)
    return 0


def _cmd_verify_srg(args, tol: float) -> int:
    params = verify_srg(read_graph(args.graph))
    eligible = is_etf_eligible(params)
    items = [
        ("v", params.v),
        ("k", params.k),
        ("lambda", params.lam),
        ("mu", params.mu),
        ("deviation", deviation(params)),
        ("eligible", eligible),
    ]
    if eligible:
        try:
            shape = srg_params_to_etf_params(params.v, params.k)
        except EtfkitError:
            shape = None
        if shape is not None:
            items += [
                ("m", shape.m),
                ("n", shape.n),
                ("alpha", shape.n / shape.m),
                ("beta", welch_bound(shape.m, shape.n)),
            ]
    _emit_record(items, args.json)
    return 0


def _cmd_etf_to_srg(args, tol: float) -> int:
    g, phi = _load_gram_or_frame(args.matrix, tol)
    if phi is None:
        phi = synthesize_from_gram(g, tol)
    b, report = etf_to_srg(phi, tol)
    write_graph(args.output, b)
    _emit_record(_record_from_report(report), args.json)
    return 0


def _cmd_srg_to_etf(args, tol: float) -> int:
    b = read_graph(args.graph)
    convert = srg_to_etf_gram_minus if args.minus else srg_to_etf_gram
    g, report = convert(b, tol)
    if args.gram_only:
        write_matrix(args.output, g.data)
    else:
        write_matrix(args.output, synthesize_from_gram(g, tol))
    _emit_record(_record_from_report(report), args.json)
    return 0


def _cmd_naimark(args, tol: float) -> int:
    g, phi = _load_gram_or_frame(args.matrix, tol)
    summary = verify_etf_gram(g, tol)
    comp = naimark_complement_gram(g, summary)
    if phi is None:
        write_matrix(args.output, comp.data)
    else:
        write_matrix(args.output, synthesize_from_gram(comp, tol))
    return 0


def _cmd_complement(args, tol: float) -> int:
    write_graph(args.output, complement(read_graph(args.graph)))
    return 0


def _cmd_spectrum(args, tol: float) -> int:
    spec = spectrum(verify_srg(read_graph(args.graph)))
    for key, value in (
        ("k", spec.k),
        ("gamma_plus", spec.gamma_plus),
        ("mult_plus", spec.mult_plus),
        ("gamma_minus", spec.gamma_minus),
        ("mult_minus", spec.mult_minus),
    ):
        print(f"{key} = {_fmt(value)}")
    return 0


def _cmd_generate(args, tol: float) -> int:
    if args.what == "paley":
        if args.q is None:
            print("error: generate paley requires a modulus q", file=sys.stderr)
            return 2
        write_graph(args.output, paley(args.q))
        return 0
    if args.q is not None:
        print(f"error: generate {args.what} takes no extra argument", file=sys.stderr)
        return 2
    if args.what == "fixture6x16":
        write_matrix(args.output, fixture_6x16())
    elif args.what == "steiner-fano":
        write_matrix(args.output, steiner_etf(fano_plane()))
    else:  # steiner-pairs4
        write_matrix(args.output, steiner_etf(pairs_design(4)))
    return 0


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
        return args.handler(args, tol)
    except EtfkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
