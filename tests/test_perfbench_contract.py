"""What the benchmark reads of the package: the claim count, the traced names
and the layer order."""

import ast
import importlib
import inspect
from pathlib import Path

from graded_leibniz.verification import all_claim_thunks

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_claim_count_matches_the_benchmark(monkeypatch):
    # perfbench counts any other claim total as failed operations, so a
    # change to the number of claims must come with a benchmark change
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import VERIFY_PAPER_CLAIMS

    assert len(all_claim_thunks()) == VERIFY_PAPER_CLAIMS


def test_traced_names_exist_in_the_package(monkeypatch):
    # perfbench wraps these by name; a rename would otherwise surface only
    # in the traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import COUNTED_METHODS, PACKAGE, SPAN_METHODS, SPAN_PRIVATE

    methods = list(SPAN_METHODS.values())
    methods += [m for group in COUNTED_METHODS.values() for m in group]
    for module, cls, name in methods:
        owner = getattr(importlib.import_module(f"{PACKAGE}.{module}"), cls)
        assert callable(getattr(owner, name, None)), f"{module}.{cls}.{name}"
    for module, name in SPAN_PRIVATE.values():
        attribute = getattr(importlib.import_module(f"{PACKAGE}.{module}"), name, None)
        assert callable(attribute), f"{module}.{name}"


def test_predicted_span_functions_exist(monkeypatch):
    # a metric <layer>.<fn>.calls or .self_s that is predicted to move reads
    # zero once fn is renamed or deleted, which only the traced benchmark run
    # would report; the tracer wraps public functions defined in the layer
    # module, so each must still be one.  DERIVED and counted names come from
    # other rules, and the names run.py supplies itself (verification.c<N>.s,
    # verification.pool_threads, trace.overhead_s) end in neither suffix.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import DERIVED, load_predictions
    from spans import COUNT_NAMES, LAYERS, PACKAGE, SPAN_METHODS

    covered = []
    for name, entry in load_predictions()["per_layer"].items():
        base, _, kind = name.rpartition(".")
        if (not entry["moves"] or kind not in ("calls", "self_s") or name in DERIVED
                or name in COUNT_NAMES or base in SPAN_METHODS):
            continue
        layer, _, fn = base.partition(".")
        assert layer in LAYERS, name
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        obj = getattr(module, fn, None)
        assert (not fn.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__), name
        covered.append(name)
    assert {"linalg.rref.calls", "snf.int_matrix_inverse.self_s"} <= set(covered)


def test_intra_package_imports_point_down_the_layers(monkeypatch):
    # spans.LAYERS lists the layers bottom-up: each module may import errors
    # and the layers before it, inside functions too, and nothing above it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import LAYERS, PACKAGE

    rank = {"errors": -1, **{layer: k for k, layer in enumerate(LAYERS)}}
    source = Path(importlib.import_module(PACKAGE).__file__).parent
    upward = []
    for path in sorted(source.glob("*.py")):
        module = path.stem
        if module == "__init__":
            continue
        assert module in rank, f"{module} is no layer"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward += [(module, t) for t in targets if rank.get(t, len(rank)) >= rank[module]]
    assert upward == []
