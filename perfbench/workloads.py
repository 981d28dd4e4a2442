"""The three workloads: seeded inputs, one cycle of operations, and the
reference each operation's output is checked against.

A workload's constructor is its set-up (import etfkit, generate and write
the inputs, warm up) and is what `setup_s` times. `build_references` then
computes the expected answers; that is benchmark bookkeeping, not set-up.
An operation calls etfkit through its public module attributes at call
time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref


@dataclass
class Op:
    """One closed-loop request: untimed `prepare`, timed `call`, untimed `check`.

    `check(result, stdout)` returns None when the answer is right, else a
    message saying what was wrong.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object, str], str | None]
    prepare: Callable[[], None] | None = None


def _import_etfkit():
    return importlib.import_module("etfkit"), importlib.import_module("etfkit.cli")


def _instance_rng(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng([seed, key])


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _cli_op(cli, label: str, argv: list[str], check, prepare=None) -> Op:
    def call():
        return cli.run(argv)

    def checked(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        return check(out)

    return Op(label, call, checked, prepare)


def _interleave(chains) -> list[Op]:
    """Step 1 of every instance, then step 2 of every instance, and so on.

    Each chain's steps stay in order, and every op type's samples spread
    over the whole pass instead of sitting in one stretch of it, so that a
    few slow seconds on a shared machine do not land on one op type.
    """
    return [op for step in zip(*(chain.ops() for chain in chains)) for op in step]


def _warm_up(chain) -> None:
    """Run each op of a small instance once, unchecked; a broken op is
    judged in the measured loop, not here."""
    for op in chain.ops():
        try:
            if op.prepare is not None:
                op.prepare()
            op.call()
        except Exception:
            pass


def _file_equals(path: str, want: bytes):
    def check(out):
        return None if _read_bytes(path) == want else f"{os.path.basename(path)} differs from the reference"
    return check


def _record_equals(want: dict, as_json: bool = False):
    def check(out):
        return ref.compare_record(ref.parse_record(out, as_json), want)
    return check


def _both(*checks):
    def check(out):
        for c in checks:
            err = c(out)
            if err:
                return err
        return None
    return check


# ---------------------------------------------------------- frame_roundtrip


FRAME_INSTANCES = (
    ("fixture6x16", ["fixture6x16"], 6, 16),
    ("steiner-fano", ["steiner-fano"], 7, 28),
    ("steiner-pairs4", ["steiner-pairs4"], 6, 16),
    ("paley13", ["paley", "13"], 7, 14),
    ("paley29", ["paley", "29"], 15, 30),
    ("paley53", ["paley", "53"], 27, 54),
    ("paley101", ["paley", "101"], 51, 102),
)


class FrameChain:
    """The seven commands on one frame instance.

    Before each `etf-to-srg`, the client switches random column signs and
    permutes columns 1..n-1 of its input; the expected graph is the base
    graph relabelled by that permutation. Signs and permutation are drawn
    afresh from the seed on every pass: Jacobi's work depends on the column
    order, so a run averages over several orders instead of resting on one.
    """

    def __init__(self, cli, workdir: str, key: int, seed: int, name: str,
                 gen_args: list[str], m: int, n: int) -> None:
        self.cli, self.name, self.m, self.n = cli, name, m, n
        self.q = int(gen_args[1]) if gen_args[0] == "paley" else None
        self.gen_args = gen_args
        self.rng = _instance_rng(seed, key)
        self.path = {k: os.path.join(workdir, f"{name}.{k}.txt") for k in (
            "gen", "frame", "gram", "frame_t", "gram_t", "graph", "graph_f", "graph_g", "naimark")}
        self.beta = ref.welch(m, n)
        self.record = ref.srg_record(*ref.srg_params(m, n)[:4])
        self.base = None      # graph the srg-to-etf commands read, in its own labels
        self.phi_t = None     # the transformed frame fed to etf-to-srg, verify-etf, naimark

    def build_references(self) -> None:
        if self.q is not None:
            self.base = ref.paley_adjacency(self.q)
            self.base_text = ref.graph_text(self.base)

    def _draw_transform(self) -> None:
        self.signs = self.rng.choice([-1.0, 1.0], size=self.n)
        self.perm = np.concatenate([[0], 1 + self.rng.permutation(self.n - 1)])
        self.sigma = self.perm[1:] - 1
        if self.q is not None:
            self.relabelled_text = ref.graph_text(ref.paley_adjacency(self.q, self.sigma))

    def _transform_frame(self, src: str) -> None:
        phi = ref.read_matrix(src)
        self.phi_t = phi[:, self.perm] * self.signs
        ref.write_matrix(self.path["frame_t"], self.phi_t)

    def _transform_gram(self) -> None:
        g = ref.read_matrix(self.path["gram"])
        ref.write_matrix(self.path["gram_t"], g[np.ix_(self.perm, self.perm)] * np.outer(self.signs, self.signs))

    def ops(self) -> list[Op]:
        p, cli, name = self.path, self.cli, self.name
        graph_in = p["gen"] if self.q is not None else p["graph"]

        def check_frame_out(out):
            phi = ref.read_matrix(p["frame"])
            return ref.check_frame(phi, self.m, self.n, ref.gram_of_graph(self.base, self.beta))

        def check_gram_out(out):
            g = ref.read_matrix(p["gram"])
            dev = float(np.max(np.abs(g - ref.gram_of_graph(self.base, self.beta))))
            return None if dev <= ref.GRAM_TOL else f"Gram file deviates by {dev:.3e}"

        def check_relabelled(path):
            def check(out):
                want = (self.relabelled_text if self.q is not None
                        else ref.graph_text(ref.relabel(self.base, self.sigma)))
                return _file_equals(path, want)(out)
            return check

        def check_naimark(out):
            psi = ref.read_matrix(p["naimark"])
            return ref.check_frame(psi, self.n - self.m, self.n, ref.naimark_gram(self.phi_t))

        record = _record_equals(self.record)
        srg_to_etf = _cli_op(cli, f"{name} srg-to-etf", ["srg-to-etf", graph_in, "-o", p["frame"]],
                             _both(record, check_frame_out))
        gram_only = _cli_op(cli, f"{name} srg-to-etf-gram", ["srg-to-etf", "--gram-only", graph_in, "-o", p["gram"]],
                            _both(record, check_gram_out))
        from_gram = _cli_op(cli, f"{name} etf-to-srg-gram", ["etf-to-srg", p["gram_t"], "-o", p["graph_g"]],
                            _both(record, check_relabelled(p["graph_g"])), self._transform_gram)
        verify = _cli_op(cli, f"{name} verify-etf", ["verify-etf", p["frame_t"]], record)
        naimark = _cli_op(cli, f"{name} naimark", ["naimark", p["frame_t"], "-o", p["naimark"]], check_naimark)
        generate = ["generate", *self.gen_args, "-o", p["gen"]]

        if self.q is not None:
            gen = _cli_op(cli, f"{name} generate", generate, lambda out: _file_equals(p["gen"], self.base_text)(out))
            def prepare_from_frame():
                self._draw_transform()
                self._transform_frame(p["frame"])

            from_frame = _cli_op(cli, f"{name} etf-to-srg", ["etf-to-srg", p["frame_t"], "-o", p["graph_f"]],
                                 _both(record, check_relabelled(p["graph_f"])), prepare_from_frame)
            return [gen, srg_to_etf, gram_only, from_frame, from_gram, verify, naimark]

        def prepare_from_generated():
            self._draw_transform()
            self._transform_frame(p["gen"])
            self.base = ref.graph_of_gram(self.phi_t.T @ self.phi_t)

        gen = _cli_op(cli, f"{name} generate", generate,
                      lambda out: ref.check_frame(ref.read_matrix(p["gen"]), self.m, self.n))
        from_frame = _cli_op(cli, f"{name} etf-to-srg", ["etf-to-srg", p["frame_t"], "-o", p["graph"]],
                             _both(record, lambda out: _file_equals(p["graph"], ref.graph_text(self.base))(out)),
                             prepare_from_generated)
        return [gen, from_frame, srg_to_etf, gram_only, from_gram, verify, naimark]


class FrameRoundtrip:
    """Every CLI conversion on frames up to n = 102, where the eigensolver dominates."""

    def __init__(self, workdir: str, seed: int) -> None:
        self.ek, self.cli = _import_etfkit()
        self.chains = [FrameChain(self.cli, workdir, key, seed, *inst)
                       for key, inst in enumerate(FRAME_INSTANCES)]
        # The warm-up inputs do not depend on the seed: Jacobi's cost depends on
        # the column order, and set-up time should not.
        _warm_up(FrameChain(self.cli, workdir, len(FRAME_INSTANCES), 0, "warmup", ["fixture6x16"], 6, 16))

    def build_references(self) -> None:
        for chain in self.chains:
            chain.build_references()

    def ops(self) -> list[Op]:
        return _interleave(self.chains)


# -------------------------------------------------------------- graph_large


GRAPH_INSTANCES = (401, 409, 433, 449, 1009)


class GraphChain:
    """The six graph commands on one Paley graph whose input file is relabelled
    by a seeded permutation of its vertices."""

    def __init__(self, cli, workdir: str, seed: int, q: int) -> None:
        self.cli, self.q = cli, q
        self.sigma = _instance_rng(seed, q).permutation(q)
        self.path = {k: os.path.join(workdir, f"paley{q}.{k}.txt") for k in ("gen", "in", "comp", "comp2")}
        self.input_text = ref.graph_text(ref.paley_adjacency(q, self.sigma))
        with open(self.path["in"], "wb") as fh:
            fh.write(self.input_text)

    def build_references(self) -> None:
        q = self.q
        self.gen_text = ref.graph_text(ref.paley_adjacency(q))
        self.comp_text = ref.graph_text(ref.complement(ref.paley_adjacency(q, self.sigma)))
        params = ref.paley_params(q)
        self.record = ref.srg_record(*params)
        self.spectrum = ref.spectrum_record(params)
        self.comp_record = ref.srg_record(*ref.complement_params((*params, False, False))[:4])

    def ops(self) -> list[Op]:
        p, cli, label = self.path, self.cli, f"paley{self.q}"
        return [
            _cli_op(cli, f"{label} generate", ["generate", "paley", str(self.q), "-o", p["gen"]],
                    lambda out: _file_equals(p["gen"], self.gen_text)(out)),
            _cli_op(cli, f"{label} verify-srg", ["verify-srg", p["in"]],
                    lambda out: _record_equals(self.record)(out)),
            _cli_op(cli, f"{label} spectrum", ["spectrum", p["in"]],
                    lambda out: _record_equals(self.spectrum)(out)),
            _cli_op(cli, f"{label} complement", ["complement", p["in"], "-o", p["comp"]],
                    lambda out: _file_equals(p["comp"], self.comp_text)(out)),
            _cli_op(cli, f"{label} verify-srg-json", ["verify-srg", "--json", p["comp"]],
                    lambda out: _record_equals(self.comp_record, as_json=True)(out)),
            _cli_op(cli, f"{label} complement2", ["complement", p["comp"], "-o", p["comp2"]],
                    lambda out: _file_equals(p["comp2"], self.input_text)(out)),
        ]


class GraphLarge:
    """Graph-file commands on Paley graphs with 401 to 1009 vertices; never
    reaches `linalg`."""

    def __init__(self, workdir: str, seed: int) -> None:
        self.ek, self.cli = _import_etfkit()
        self.chains = [GraphChain(self.cli, workdir, seed, q) for q in GRAPH_INSTANCES]
        _warm_up(GraphChain(self.cli, workdir, 0, 13))

    def build_references(self) -> None:
        for chain in self.chains:
            chain.build_references()

    def ops(self) -> list[Op]:
        return _interleave(self.chains)


# -------------------------------------------------------------- param_sweep


SWEEP_V_STOP = 2000  # v = 1973 holds the two known false accepts; keep it in range
WARMUP_ROWS = range(1, 64)


def _plain(entry: tuple) -> tuple:
    """A row entry with library results turned into plain tuples."""
    def plain(obj):
        if obj is None or isinstance(obj, (int, str)):
            return obj
        if hasattr(obj, "mult_plus"):
            return (obj.k, obj.gamma_plus, obj.gamma_minus, obj.mult_plus, obj.mult_minus)
        return (obj.v, obj.k, obj.lam, obj.mu, obj.lam_vacuous, obj.mu_vacuous)
    return tuple(plain(x) for x in entry)


def _same(got, want) -> bool:
    if isinstance(got, tuple) and isinstance(want, tuple):
        return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    if isinstance(want, float) and isinstance(got, float):
        return abs(got - want) <= ref.RECORD_TOL * max(1.0, abs(want))
    return got == want


class ParamSweep:
    """The scalar parameter maps over every (v, k) with v < 2000; one op is one
    v row. Most calls are rejections, which the client catches."""

    def __init__(self, workdir: str, seed: int) -> None:
        self.ek, self.cli = _import_etfkit()
        errors = importlib.import_module("etfkit.errors")
        self.rejected = errors.NonIntegralDimension
        self.downstream_errors = (errors.EtfkitError, ValueError)
        self.rows = _instance_rng(seed, 0).permutation(np.arange(1, SWEEP_V_STOP)).tolist()
        for v in WARMUP_ROWS:
            self.row(v)

    def row(self, v: int) -> list:
        """Every k for one v; keeps the accepted shapes and what follows from them."""
        ek = self.ek
        to_shape, to_params = ek.srg_params_to_etf_params, ek.etf_params_to_srg_params
        spectrum, complement_params = ek.spectrum, ek.complement_params
        rejected, downstream_errors = self.rejected, self.downstream_errors
        out = []
        for k in range(v):
            try:
                shape = to_shape(v, k)
            except rejected:
                continue
            try:
                params = to_params(shape)
            except downstream_errors as exc:
                out.append((k, shape.m, shape.n, type(exc).__name__, None, None))
                continue
            results = []
            for fn in (spectrum, complement_params):
                try:
                    results.append(fn(params))
                except downstream_errors as exc:
                    results.append(type(exc).__name__)
            out.append((k, shape.m, shape.n, params, *results))
        return out

    def build_references(self) -> None:
        self.expected = {}
        for v, accepted in ref.accepted_shapes(SWEEP_V_STOP).items():
            rows = []
            for k, m in accepted:
                params = ref.srg_params(m, v + 1)
                if isinstance(params, str):
                    rows.append((k, m, v + 1, params, None, None))
                else:
                    rows.append((k, m, v + 1, params, ref.spectrum(params), ref.complement_params(params)))
            self.expected[v] = rows

    def _check_row(self, v: int, got: list) -> str | None:
        want = {entry[0]: entry for entry in self.expected[v]}
        have = {entry[0]: _plain(entry) for entry in got}
        wrong = []
        for k in sorted(set(want) | set(have)):
            w, g = want.get(k), have.get(k)
            if w is None:
                wrong.append(f"({v},{k}) accepted as m={g[1]}, but m is not an integer")
            elif g is None:
                wrong.append(f"({v},{k}) rejected, but m={w[1]} exactly")
            elif not _same(g, w):
                wrong.append(f"({v},{k}) gave {g[1:]}, expected {w[1:]}")
        return "; ".join(wrong) or None

    def ops(self) -> list[Op]:
        def op_for(v):
            return Op(f"v{v}", lambda: self.row(v), lambda got, out: self._check_row(v, got))
        return [op_for(v) for v in self.rows]


WORKLOADS = {
    "frame_roundtrip": FrameRoundtrip,
    "graph_large": GraphLarge,
    "param_sweep": ParamSweep,
}
