"""What the benchmark reads of the package: the claim count and the traced names."""

import importlib
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
