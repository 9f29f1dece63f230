"""Outside-in tracer: spans and counts around calls into graded_leibniz.

The benchmark installs wrappers around the public functions of every
layer module.  The package imports names directly (``from .groups import
all_homs``), so each importing module holds its own reference; a wrapper
installed only on the defining module would miss those call sites.
`Tracer.install` therefore replaces every attribute of every
``graded_leibniz`` module in ``sys.modules`` that *is* a traced object,
and `Tracer.assert_installed` confirms that no original is left behind.
Modules are reached through ``importlib.import_module``: the package
attribute ``graded_leibniz.catalog`` is the ``catalog()`` function,
because ``__init__`` rebinds the name.

A span records (id, parent id, name, start, end, op id); parents come
from a per-thread stack, so spans in the worker threads of
``verification.run_all`` nest correctly within their own thread.  Spans
are kept in memory and written out once the traced pass ends.  The
hottest methods (scalar arithmetic, group element construction, algebra
products) only count calls: a span per scalar operation would cost more
than the operation.  Counts use ``itertools.count``, whose ``next`` is
atomic under the interpreter lock, so pool threads lose no increments.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "graded_leibniz"

#: the package's layer modules, bottom-up
LAYERS = (
    "fields", "linalg", "snf", "algebras", "groups",
    "gradings", "catalog", "torus", "verification", "cli",
)

#: methods traced with a span (name -> (module, class, attribute))
SPAN_METHODS = {
    "gradings.partition": ("gradings", "Grading", "partition"),
}

#: private functions traced with a span because a count is taken there
SPAN_PRIVATE = {
    "torus._family_param_space": ("torus", "_family_param_space"),
}

#: hot methods whose calls are only counted (counter -> methods)
COUNTED_METHODS = {
    "fields.scalar_ops": [
        ("fields", "Scalar", name)
        for name in ("__add__", "__sub__", "__mul__", "__neg__", "inv", "__pow__")
    ],
    "fields.coercions": [("fields", "Field", "scalar")],
    "groups.element.calls": [("groups", "AbelianGroup", "element")],
    "algebras.product.calls": [("algebras", "Algebra", "product")],
}


def _cells(matrix) -> int:
    return len(matrix) * len(matrix[0]) if matrix else 0


#: quantities read at a span's boundary: span name -> [(total, fn(args, result, parent))]
PROBES = {
    "linalg.rref": [("linalg.rref.cells", lambda a, r, parent: _cells(a[0]))],
    "snf.smith_normal_form": [("snf.smith_normal_form.cells", lambda a, r, parent: _cells(a[0]))],
    "catalog.enumerate_h1_gradings": [("catalog.classes_kept", lambda a, r, parent: len(r))],
    "torus.brute_force_aut": [("torus.auts_found", lambda a, r, parent: r.count)],
    "torus.normalizer_equals_torus": [
        ("torus.normalizer_size", lambda a, r, parent: r.normalizer_size),
    ],
    "torus._family_param_space": [
        ("torus.family_matrices",
         lambda a, r, parent: len(r) if parent == "torus.normalizer_equals_torus" and r else 0),
    ],
}

#: every count the tracer can report, whether or not it was incremented
COUNT_NAMES = set(COUNTED_METHODS) | {t for probes in PROBES.values() for t, _ in probes}


def layer_modules():
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}


def package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: dict[str, itertools.count] = {}
        self._totals: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._swaps: list[tuple] = []  # (owner, attribute, original)
        self._originals: list[object] = []
        #: idents of every thread that made a traced call
        self.threads: set[int] = set()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self.threads.add(threading.get_ident())
            self._local.stack = []
            return self._local.stack

    def _counter(self, name: str) -> itertools.count:
        return self._counters.setdefault(name, itertools.count())

    def _add(self, name: str, amount: int) -> None:
        with self._lock:
            self._totals[name] += amount

    def _span_wrapper(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        names, spans, ids, stack_of = self.names, self.spans, self._ids, self._stack
        probes = PROBES.get(name, ())
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so time the caller spends between
            # items is not charged to the generator
            yields = self._counter(f"{name}.yields")

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    stack = stack_of()
                    sid = next(ids)
                    parent = stack[-1] if stack else (0, -1)
                    stack.append((sid, idx))
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        spans.append((sid, parent[0], idx, start, end, self.op))
                    next(yields)
                    if parent[1] >= 0:
                        next(self._counter(f"{name}.yields_under.{names[parent[1]]}"))
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else (0, -1)
            stack.append((sid, idx))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent[0], idx, start, end, self.op))
            if probes:
                caller = names[parent[1]] if parent[1] >= 0 else None
                for total, probe in probes:
                    self._add(total, probe(args, result, caller))
            return result

        return wrapper

    def _count_wrapper(self, counter: str, fn):
        c = self._counter(counter)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(c)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced object at every place the package holds it."""
        mods = layer_modules()
        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._span_wrapper(f"{layer}.{attr}", obj))
        for name, (layer, attr) in SPAN_PRIVATE.items():
            obj = getattr(mods[layer], attr)
            wrapped[id(obj)] = (obj, self._span_wrapper(name, obj))
        for mod in package_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._swaps.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)][1])
        for name, (layer, cls, attr) in SPAN_METHODS.items():
            owner = getattr(mods[layer], cls)
            original = owner.__dict__[attr]
            self._swaps.append((owner, attr, original))
            setattr(owner, attr, self._span_wrapper(name, original))
        for counter, methods in COUNTED_METHODS.items():
            for layer, cls, attr in methods:
                owner = getattr(mods[layer], cls)
                original = owner.__dict__[attr]
                self._swaps.append((owner, attr, original))
                setattr(owner, attr, self._count_wrapper(counter, original))
        self._originals = [original for original, _ in wrapped.values()]

    def assert_installed(self) -> None:
        """Fail if any package module holds an unwrapped original.

        Called once the traced work is done, so it also covers modules
        imported while tracing was on.
        """
        originals = {id(o) for o in self._originals}
        for mod in package_modules():
            for attr, obj in vars(mod).items():
                if id(obj) in originals:
                    raise RuntimeError(f"trace wrapper missing at {mod.__name__}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._swaps):
            setattr(owner, attr, original)
        self._swaps.clear()

    # -- results ---------------------------------------------------------

    def counts(self) -> dict[str, int]:
        out = {name: next(c) for name, c in self._counters.items()}
        out.update(self._totals)
        return out

    def span_stats(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, idx, start, end, op in self.spans:
            if parent:
                child_time[parent] += end - start
        stats: dict[str, dict] = {}
        for sid, parent, idx, start, end, op in self.spans:
            entry = stats.setdefault(self.names[idx], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time.get(sid, 0.0)
        return stats

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["id", "parent", "name", "start", "end", "op"]}) + "\n")
            for sid, parent, idx, start, end, op in self.spans:
                out.write(f'[{sid},{parent},"{self.names[idx]}",{start:.9f},{end:.9f},{op}]\n')
