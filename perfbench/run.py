"""etfkit benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; etfkit is imported from its `src/`. An op
is one in-process `etfkit.cli.run([...])` call, or one `param_sweep` row.
A run sends a workload's ops in a fixed order, over and over, until at
least S seconds have passed and at least MIN_OPS ops have run, so every
p90 has ten samples beyond it. With `--trace 0` the last line of stdout is
the end-to-end result; with `--trace 1` the run alternates an untraced and
a traced pass until S seconds have passed, and reports per-layer numbers
from the traced passes. Results (with the environment) and traced spans
are written under `.perfbench_out/`.
"""

from __future__ import annotations

import os
import sys

import benchenv

benchenv.pin_blas_threads()  # before anything imports numpy

import argparse
import io
import itertools
import json
import math
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
MIN_OPS = 100
SETUP_REPEATS = 7

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYERS = ("cli", "linalg", "frames", "graphs", "correspondence", "generators")
CALLS_PER_OP = ("linalg.sym_eigen", "frames.verify_etf_gram", "graphs.verify_srg", "cli.read_matrix")
SELF_MS_PER_OP = (
    "linalg.sym_eigen", "frames.verify_etf_gram", "frames.synthesize_from_gram", "frames.gram",
    "frames.sign_normalize", "frames.naimark_complement_gram", "graphs.verify_srg",
    "graphs.spectrum", "graphs.complement", "cli.read_matrix", "cli.write_matrix",
    "cli.read_graph", "cli.write_graph", "cli.run", "correspondence.etf_to_srg",
    "correspondence.srg_to_etf_gram", "generators.paley", "generators.steiner_etf",
)
SELF_US_PER_CALL = ("correspondence.srg_params_to_etf_params", "correspondence.etf_params_to_srg_params")
COUNTERS_PER_OP = {
    "cli.bytes_read_per_op": ("cli.bytes_read", "bytes/op"),
    "cli.bytes_written_per_op": ("cli.bytes_written", "bytes/op"),
    "graphs.verify_srg.matmul_ops_per_op": ("graphs.verify_srg.matmul_ops", "computed_v3/op"),
}


def per_layer_units() -> dict[str, str]:
    units = {f"{n}.calls_per_op": "count/op" for n in CALLS_PER_OP}
    units.update({f"{n}.self_ms_per_op": "ms/op" for n in SELF_MS_PER_OP})
    units.update({f"{n}.self_us_per_call": "us/call" for n in SELF_US_PER_CALL})
    units.update({name: unit for name, (_, unit) in COUNTERS_PER_OP.items()})
    units.update({f"{layer}.self_share": "ratio" for layer in LAYERS})
    units.update({
        "correspondence.accept_ratio": "ratio",
        "errors.rejections_per_op": "count/op",
        "trace.overhead_ratio": "ratio",
    })
    return units


# ------------------------------------------------------------- closed loop


def run_op(op, index: int, tracer) -> tuple[str, int | None, str | None]:
    """(label, latency_ns or None if never sent, error or None)."""
    try:
        if op.prepare is not None:
            op.prepare()
    except Exception as exc:
        return op.label, None, f"client could not prepare the input: {exc!r}"
    if tracer is not None:
        tracer.op = index
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter_ns()
        try:
            result, error = op.call(), None
        except Exception as exc:
            result, error = None, f"raised {exc!r}"
        ns = time.perf_counter_ns() - start
    if error is None:
        try:
            error = op.check(result, out.getvalue())
        except Exception as exc:
            error = f"output check failed: {exc!r}"
    return op.label, ns, error


def closed_loop(ops, seconds: float, min_ops: int):
    """Send `ops` in their fixed order, over and over, until at least
    `seconds` have passed and at least `min_ops` ops have run."""
    samples = []
    start = time.perf_counter()
    for op in itertools.cycle(ops):
        if len(samples) >= min_ops and time.perf_counter() - start >= seconds:
            return samples
        samples.append(run_op(op, len(samples), None))


def traced_rounds(ops, seconds: float, tracer):
    """Alternate an untraced pass and a traced pass until `seconds` have
    passed, so drift in machine speed falls on both sides alike."""
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.extend(run_op(op, len(untraced), None) for op in ops)
        tracer.install()
        try:
            traced.extend(run_op(op, len(traced), tracer) for op in ops)
        finally:
            tracer.uninstall()
    return untraced, traced


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[math.ceil(pct / 100.0 * len(sorted_values)) - 1]


def busy_s(samples) -> float:
    return sum(ns for _, ns, _ in samples if ns is not None) / 1e9


def end_to_end(samples, setup_times) -> dict[str, float]:
    lat = sorted(ns / 1e6 for _, ns, _ in samples if ns is not None)
    ok = sum(1 for *_, err in samples if err is None)
    return {
        "ops_per_s": ok / busy_s(samples),
        "op_p50_ms": nearest_rank(lat, 50),
        "op_p90_ms": nearest_rank(lat, 90),
        "ok_ratio": ok / len(samples),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced, untraced) -> dict[str, float]:
    ops = len(traced)
    traced_s = busy_s(traced)
    values = {}
    for name in CALLS_PER_OP:
        values[f"{name}.calls_per_op"] = tracer.stats(name)[0] / ops
    for name in SELF_MS_PER_OP:
        values[f"{name}.self_ms_per_op"] = tracer.stats(name)[2] / 1e6 / ops
    for name in SELF_US_PER_CALL:
        calls, _, self_ns = tracer.stats(name)
        values[f"{name}.self_us_per_call"] = self_ns / 1e3 / calls if calls else 0.0
    for metric, (counter, _) in COUNTERS_PER_OP.items():
        values[metric] = tracer.counters.get(counter, 0) / ops
    for layer in LAYERS:
        values[f"{layer}.self_share"] = tracer.module_self_ns(layer) / 1e9 / traced_s
    calls, raised, _ = tracer.stats("correspondence.srg_params_to_etf_params")
    values["correspondence.accept_ratio"] = (calls - raised) / calls if calls else 0.0
    values["errors.rejections_per_op"] = tracer.rejections / ops
    values["trace.overhead_ratio"] = traced_s / busy_s(untraced)
    return values


# ------------------------------------------------------------------ set-up


def forget_etfkit() -> None:
    for name in [n for n in sys.modules if n == "etfkit" or n.startswith("etfkit.")]:
        del sys.modules[name]


def set_up(workload_cls, workdir: str, seed: int):
    """Set the workload up SETUP_REPEATS times from a fresh import; keep the last."""
    times = []
    for r in range(SETUP_REPEATS):
        forget_etfkit()
        d = os.path.join(workdir, f"setup{r}")
        os.makedirs(d)
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):  # warm-up records
            workload = workload_cls(d, seed)
        times.append(time.perf_counter() - start)
    if not os.path.abspath(workload.ek.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"etfkit was imported from {workload.ek.__file__}, not from {SRC}")
    return workload, times


# -------------------------------------------------------------------- main


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "etfkit", "__init__.py")):
        print(f"perfbench: no etfkit sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv)
    seed = args.seed % 2**63

    from tracer import Tracer
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload, setup_times = set_up(WORKLOADS[args.workload], workdir, seed)
        workload.build_references()
        ops = workload.ops()
        report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                  "env": benchenv.describe(ROOT, args.seed), "setup_times_s": setup_times}
        if args.trace == 0:
            samples = closed_loop(ops, args.seconds, MIN_OPS)
            metrics = end_to_end(samples, setup_times)
            units = END_TO_END
        else:
            tracer = Tracer()
            untraced, traced = traced_rounds(ops, args.seconds, tracer)
            samples = untraced + traced
            metrics = per_layer(tracer, traced, untraced)
            units = per_layer_units()
            spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write_spans(spans_path, {"workload": args.workload, "seed": args.seed})
            report["spans_file"] = os.path.relpath(spans_path, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(label, err) for label, _, err in samples if err is not None]
    by_label: dict[str, list[float]] = {}
    for label, ns, _ in samples:
        if ns is not None:
            by_label.setdefault(label, []).append(ns / 1e6)
    report.update(
        attempted=len(samples), failed=len(failures), failures=failures[:20],
        op_median_ms={k: statistics.median(v) for k, v in by_label.items()},
        metrics=metrics)
    result_path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as fh:
        json.dump(report, fh, indent=1)

    print("env " + json.dumps(report["env"]))
    for label, err in failures[:5]:
        print(f"FAILED {label}: {err}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
