"""Spans around calls into ibpcheck, recorded from outside the package.

`Tracer.install` replaces every public function of the six layer modules
at every binding site in the package's module namespaces: ``from
.equilibrium import solve_icwe`` copies the binding into ``paradox``, so
patching only the defining module would miss those calls.  Spans stay in
memory and are written out once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("core_graph", "topology", "equilibrium", "paradox", "instance_io", "cli")

# Span fields: name, start, end, parent index (-1 for a root), op id,
# raised an exception, attributes of the result.  An open span is a list;
# once closed it is stored as a tuple, which the garbage collector stops
# tracking, so a long trace does not slow collections down.
NAME, START, END, PARENT, OP, FAILED, ATTRS = range(7)


def _result_attrs(name: str, args, kwargs, result):
    """The counts a per-layer metric needs from a traced call and its result."""
    if name in ("core_graph.enumerate_simple_paths", "equilibrium.feasible_paths"):
        return len(result)
    if name == "equilibrium.solve_icwe":
        requested = kwargs.get("backend", args[3] if len(args) > 3 else "auto")
        return (result.backend, result.iterations, requested)
    if name == "paradox.random_search_ibp":
        return (result.trials_run, len(result.hits))
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op_id = -1

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(None)
        record[START] = time.perf_counter()
        return record

    def _close(self, record: list, failed: bool = False, attrs=None) -> None:
        record[END] = time.perf_counter()
        record[FAILED] = failed
        record[ATTRS] = attrs
        self.spans[self._stack.pop()] = tuple(record)

    @contextlib.contextmanager
    def root(self, name: str, op_id: int):
        """A span the benchmark itself opens (op, check); children join its op."""
        self.op_id = op_id
        record = self._open(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(record, failed=failed)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(record, failed=True)
                raise
            self._close(record, attrs=_result_attrs(name, args, kwargs, result))
            return result

        return traced

    def install(self, package: str = "ibpcheck") -> None:
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    originals[value] = self.wrap(f"{layer}.{attr}", value)
        namespaces = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, originals[value])

    def uninstall(self) -> None:
        for module, attr, value in self._restore:
            setattr(module, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for index, record in enumerate(spans):
        if record[PARENT] >= 0:
            children[record[PARENT]].append(index)
    result = []
    for index, record in enumerate(spans):
        start, end = record[START], record[END]
        covered = 0.0
        reach = start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c][START]):
            lo = max(spans[child][START], reach)
            hi = min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def layer_totals(spans) -> dict[str, float]:
    """Sum calls, self time, failures and result counts per traced function.

    Keys are ``<module>.<function>.<stat>``; ``solve_icwe`` is also split
    by the backend its result reports.
    """
    totals: dict[str, float] = defaultdict(float)
    for record, own in zip(spans, self_times(spans)):
        name = record[NAME]
        if name.split(".")[0] not in LAYERS:
            continue
        keys = [name]
        attrs = record[ATTRS]
        if name == "equilibrium.solve_icwe" and attrs is not None:
            backend, iterations, requested = attrs
            keys.append(f"{name}.{backend}")
            if backend == "cg":
                totals[f"{name}.sweeps"] += iterations
            if requested == "auto":
                totals[f"{name}.auto.calls"] += 1
                totals[f"{name}.auto.exact"] += backend == "exact"
        elif name == "paradox.random_search_ibp" and attrs is not None:
            totals["paradox.search.trials"] += attrs[0]
            totals["paradox.search.hits"] += attrs[1]
        elif isinstance(attrs, int):
            totals[f"{name}.paths"] += attrs
        for key in keys:
            totals[f"{key}.calls"] += 1
            totals[f"{key}.self_s"] += own
        totals[f"{name}.failed"] += record[FAILED]
    return dict(totals)
