"""Span tracer that wraps chronoq's public functions from outside the package.

:func:`install` replaces every public module-level function, and every public
method and ``__init__`` of every class, in the chronoq modules with a wrapper
that records a span.  It also rebinds the names other chronoq modules imported
with ``from .qcore import ...``, so cross-module calls are seen too.  Nothing
under ``src/`` is edited.

Not wrapped: ``RandomSource`` (one call per random draw; its time is charged
to the caller), exception classes and properties.  Private helpers are not
wrapped either: their time is self time of the nearest public caller.

A span's self time is its duration minus the time covered by its child spans.
Per function the tracer keeps calls, total and self seconds, the computed
bytes of the objects it returns (``nbytes`` from array shapes: ndarray,
``StateVector.amplitudes``, ``DensityOperator.matrix``), the largest square
operator it produced, how often it returned ``True``, and per caller the same
call and ``True`` counts.  Raw spans of the current pass stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

SKIP_CLASSES = {"RandomSource"}

# Functions whose keyword arguments are counted: name -> (flag, default).
FLAGS = {"qcore.DensityOperator.__init__": ("validate", True)}

_UNSET = object()


def _computed_bytes(obj) -> tuple[int, int]:
    """(nbytes, square dimension or 0) of an array-holding object."""
    arr = getattr(obj, "matrix", None)
    if arr is None:
        arr = getattr(obj, "amplitudes", obj)
    shape = getattr(arr, "shape", None)
    if shape is None:
        return 0, 0
    square = shape[0] if len(shape) == 2 and shape[0] == shape[1] else 0
    return int(arr.nbytes), int(square)


class Tracer:
    def __init__(self):
        self.stack: list = []  # open spans: [child_seconds, name, span_id]
        self.functions: dict = {}  # name -> [calls, total_s, self_s, bytes, max_dense_bytes, max_dim, true, flagged]
        self.edges: dict = {}  # (caller, callee) -> [calls, true]
        self.layer: dict = {}  # name -> layer
        self.spans: list = []  # (span_id, parent_id, name, start, end)
        self._ids = 0

    def clear_spans(self):
        self.spans = []

    def reset(self):
        """Zero every count, keeping the installed wrappers."""
        for f in self.functions.values():
            f[:] = [0, 0.0, 0.0, 0, 0, 0, 0, 0]
        self.edges.clear()
        self.clear_spans()

    def record(self, name, start, end, child_s, caller, parent_id, span_id, subject, flagged, is_true):
        f = self.functions[name]
        duration = end - start
        f[0] += 1
        f[1] += duration
        f[2] += duration - child_s
        if subject is not _UNSET:
            nbytes, dim = _computed_bytes(subject)
            f[3] += nbytes
            if dim:
                f[4] = max(f[4], nbytes)
                f[5] = max(f[5], dim)
        f[6] += is_true
        f[7] += flagged
        edge = self.edges.setdefault((caller, name), [0, 0])
        edge[0] += 1
        edge[1] += is_true
        self.spans.append((span_id, parent_id, name, start, end))

    def wrap(self, fn, name: str, layer: str, is_init: bool = False):
        self.functions.setdefault(name, [0, 0.0, 0.0, 0, 0, 0, 0, 0])
        self.layer[name] = layer
        flag = FLAGS.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._ids += 1
            frame = [0.0, name, self._ids]
            stack.append(frame)
            result = _UNSET
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[0] += end - start
                subject = args[0] if is_init and result is not _UNSET else result
                flagged = int(bool(kwargs.get(flag[0], flag[1]))) if flag else 0
                self.record(
                    name, start, end, frame[0],
                    parent[1] if parent else None, parent[2] if parent else None, frame[2],
                    subject, flagged, int(result is True),
                )

        return traced

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span the harness opens itself (e.g. a whole CLI command)."""
        return self.wrap(fn, name, layer)(*args, **kwargs)

    def summary(self) -> dict:
        return {
            "functions": {
                name: {
                    "layer": self.layer[name], "calls": f[0], "total_s": f[1], "self_s": f[2],
                    "bytes": f[3], "max_dense_bytes": f[4], "max_dim": f[5], "true": f[6],
                    "flagged": f[7],
                }
                for name, f in self.functions.items() if f[0]
            },
            "edges": [[caller, callee, c[0], c[1]] for (caller, callee), c in self.edges.items()],
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent_id, "name": name,
                                     "layer": self.layer[name], "start": start, "end": end}) + "\n")


def chronoq_modules() -> list:
    """The chronoq library modules (everything in ``chronoq.__all__``)."""
    import chronoq

    return [getattr(chronoq, name) for name in chronoq.__all__ if name != "__version__"]


def install(tracer: Tracer, modules) -> int:
    """Wrap the public functions and methods of ``modules``; returns the count."""
    replaced = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                replaced[obj] = tracer.wrap(obj, f"{layer}.{attr}", layer)
            elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                  and not issubclass(obj, BaseException) and attr not in SKIP_CLASSES):
                _wrap_class(tracer, obj, layer)
    for mod in modules:  # rebind names imported from sibling modules
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    return len(replaced)


def _wrap_class(tracer: Tracer, cls, layer: str):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__init__":
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(member, name, layer, is_init=attr == "__init__"))
        elif isinstance(member, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(member.__func__, name, layer)))
        elif isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(member.__func__, name, layer)))


def merge(total: dict, part: dict) -> dict:
    """Add one summary (e.g. from a CLI child) into a running total."""
    funcs = total.setdefault("functions", {})
    for name, f in part["functions"].items():
        acc = funcs.setdefault(name, {k: 0 for k in f} | {"layer": f["layer"]})
        for key, value in f.items():
            if key in ("max_dense_bytes", "max_dim"):
                acc[key] = max(acc[key], value)
            elif key != "layer":
                acc[key] += value
    edges = {(a, b): [c, t] for a, b, c, t in total.get("edges", [])}
    for a, b, c, t in part["edges"]:
        acc = edges.setdefault((a, b), [0, 0])
        acc[0] += c
        acc[1] += t
    total["edges"] = [[a, b, c, t] for (a, b), (c, t) in edges.items()]
    return total
