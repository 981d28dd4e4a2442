"""Spans around etfkit's public functions, recorded from outside the package.

`Tracer.install` replaces every public function of every loaded `etfkit.*`
module, in each namespace that binds it (`etfkit.frames.sym_eigen` is what
`frames` code looks up, `etfkit.cli.verify_srg` what the CLI looks up), with
a wrapper that records a span; `uninstall` puts the originals back. No file
of the package changes.

A span is (id, name, start_ns, end_ns, parent id, op id). Self time is a
span's duration minus the durations of its direct children; calls run on
one thread, so children never overlap. Totals per name are kept for every
call; the span list itself is capped and the number dropped is recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from array import array
from time import perf_counter_ns

PACKAGE = "etfkit"
SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "op")
SPAN_CAP = 50_000


def _path_size(args, result):
    return os.path.getsize(args[0])


def _verify_srg_work(args, result):
    a = args[0]
    v = a.v if hasattr(a, "v") else len(a)
    return v ** 3


# Counters measured at a layer boundary, after the span has closed:
# name -> (counter, function of (args, result)).
_COUNTERS = {
    "cli.read_matrix": ("cli.bytes_read", _path_size),
    "cli.read_graph": ("cli.bytes_read", _path_size),
    "cli.write_matrix": ("cli.bytes_written", _path_size),
    "cli.write_graph": ("cli.bytes_written", _path_size),
    "graphs.verify_srg": ("graphs.verify_srg.matmul_ops", _verify_srg_work),
}


class Tracer:
    def __init__(self) -> None:
        # The exception class a caller sees as "input refused".
        self.rejection = importlib.import_module(f"{PACKAGE}.errors").EtfkitError
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.raised: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, int] = {}
        self.rejections = 0
        self.spans = array("q")
        self.dropped = 0
        self.op = -1
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- wrapping

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(PACKAGE)):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                setattr(module, attr, wrappers[obj])
                self._installed.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._installed):
            setattr(module, attr, obj)
        self._installed.clear()

    @property
    def bindings(self) -> list[tuple[object, str, object]]:
        """(module, attribute, original function) for every wrapped binding."""
        return list(self._installed)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.raised, self.self_ns):
                column.append(0)
        return self._ids[name]

    def _wrap(self, fn):
        module = fn.__module__.partition(".")[2] or fn.__module__
        name = f"{module}.{fn.__name__}"
        nid = self._name_id(name)
        counter = _COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            raised = None
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                raised = exc
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer._close(nid, sid, parent, start, end, frame[1], raised)
                if counter is not None and raised is None:
                    key, measure = counter
                    tracer.counters[key] = tracer.counters.get(key, 0) + measure(args, result)
                if parent == -1 and (isinstance(raised, tracer.rejection)
                                     or (name == "cli.run" and result == 1)):
                    tracer.rejections += 1

        return traced

    def _close(self, nid, sid, parent, start, end, child_ns, raised) -> None:
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[nid] += 1
        self.self_ns[nid] += dur - child_ns
        if raised is not None:
            self.raised[nid] += 1
        if len(self.spans) < SPAN_CAP * len(SPAN_FIELDS):
            self.spans.extend((sid, nid, start, end, parent, self.op))
        else:
            self.dropped += 1

    # ------------------------------------------------------------ results

    def stats(self, name: str) -> tuple[int, int, int]:
        """(calls, raised, self_ns) for a span name; zeros if never called."""
        i = self._ids.get(name)
        return (0, 0, 0) if i is None else (self.calls[i], self.raised[i], self.self_ns[i])

    def module_self_ns(self, module: str) -> int:
        prefix = module + "."
        return sum(s for n, s in zip(self.names, self.self_ns) if n.startswith(prefix))

    def write_spans(self, path: str, header: dict) -> None:
        width = len(SPAN_FIELDS)
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": SPAN_FIELDS, "names": self.names,
                                 "stored": len(self.spans) // width, "dropped": self.dropped}) + "\n")
            for i in range(0, len(self.spans), width):
                sid, nid, start, end, parent, op = self.spans[i:i + width]
                fh.write(json.dumps([sid, self.names[nid], start, end, parent, op]) + "\n")
