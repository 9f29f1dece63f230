"""Per-layer metrics: how each name in BENCHMARK.json is computed from a trace.

A name ``<layer>.<function>.calls`` counts spans (or counted calls) and
``<layer>.<function>.self_s`` sums span time minus the time of direct
child spans.  The remaining names are counts taken at span boundaries
or ratios of them, listed in `DERIVED`.  `predictions.json` records, for
each metric, the end-to-end metric and workload it should move; the
metric must be nonzero on each of those workloads, which catches a trace
wrapper that misses its call sites.
"""

from __future__ import annotations

import json
from pathlib import Path

from spans import COUNT_NAMES

HERE = Path(__file__).resolve().parent


def load_spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def load_predictions() -> dict:
    with open(HERE / "predictions.json", encoding="utf-8") as f:
        return json.load(f)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _homs_in_enumeration(t) -> int:
    return t.count("groups.all_homs.yields_under.catalog.enumerate_h1_gradings")


#: metric name -> fn(trace view)
DERIVED = {
    "groups.all_homs.homs": lambda t: t.count("groups.all_homs.yields"),
    "catalog.classes_kept": lambda t: t.count("catalog.classes_kept"),
    "catalog.kept_ratio": lambda t: _ratio(t.count("catalog.classes_kept"), _homs_in_enumeration(t)),
    "catalog.us_per_hom": lambda t: _ratio(
        t.total_s("catalog.enumerate_h1_gradings") * 1e6, _homs_in_enumeration(t)),
    "torus.auts_found": lambda t: t.count("torus.auts_found"),
    "torus.family_matrices": lambda t: t.count("torus.family_matrices"),
    "torus.normalizer_hit_ratio": lambda t: _ratio(
        t.count("torus.normalizer_size"), t.count("torus.family_matrices")),
    # universal_grading is a thin wrapper of universal_grading_with_generators
    "gradings.universal_grading.self_s": lambda t: (
        t.self_s("gradings.universal_grading") + t.self_s("gradings.universal_grading_with_generators")),
    "torus.aut_matrix.calls": lambda t: t.calls("torus.aut_matrix_nf") + t.calls("torus.aut_matrix_f1"),
}


class TraceView:
    """Read access to one traced pass's span statistics and counts."""

    def __init__(self, stats: dict, counts: dict, extra: dict):
        self.stats, self.counts, self.extra = stats, counts, extra

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)

    def calls(self, span: str) -> int:
        return self.stats.get(span, {}).get("calls", 0)

    def self_s(self, span: str) -> float:
        return self.stats.get(span, {}).get("self_s", 0.0)

    def total_s(self, span: str) -> float:
        return self.stats.get(span, {}).get("total_s", 0.0)

    def value(self, name: str) -> float:
        if name in self.extra:
            return self.extra[name]
        if name in DERIVED:
            return DERIVED[name](self)
        if name in COUNT_NAMES:
            return self.count(name)
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            return self.calls(base)
        if kind == "self_s":
            return self.self_s(base)
        raise KeyError(f"no rule computes per-layer metric {name!r}")


def per_layer(spec: dict, view: TraceView) -> dict[str, dict]:
    return {m["name"]: {"value": view.value(m["name"]), "unit": m["unit"]}
            for m in spec["per_layer"]}


def predicted_zeros(metrics: dict[str, dict], workload: str, predictions: dict) -> list[str]:
    """Metrics predicted to move on `workload` that read zero there."""
    out = []
    for name, entry in predictions["per_layer"].items():
        workloads = {w for moves in entry["moves"].values() for w in moves}
        if workload in workloads and not metrics[name]["value"]:
            out.append(name)
    return out
