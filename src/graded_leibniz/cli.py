"""Command line front end.

Verbs: check, props, gradings, aut-count, normalizer, verify-paper,
export.  `build_parser` declares each verb once, with its handler as the
subparser's `run` default; the parser is built once at import and `main`
calls `args.run(args)`.  Every invocation writes exactly one JSON
document to stdout; usage problems, a malformed `--input` document
included, go to stderr with exit code 2, failed checks exit 1.
Output is deterministic: result lists are canonically sorted before
emission and worker-pool scheduling never affects report order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .algebras import (
    Algebra,
    center,
    check_leibniz,
    is_antisymmetric,
    make_family,
    nilpotency_profile,
    right_annihilator,
)
from .catalog import FAMILY_HYPOTHESIS, default_group_menu, enumerate_h1_gradings
from .errors import GradedLeibnizError
from .fields import Field, QQ, Scalar
from .groups import AbelianGroup
from .torus import DEFAULT_BUDGET, brute_force_aut, family_counts, normalizer_equals_torus
from .verification import run_all, summarize

_FAMILY_FLAGS = {"nf": "nf", "f1": "f1", "f2": "f2", "lie-l": "lie_l", "lie-q": "lie_q"}

#: measured rate for converting --budget-ms into walk steps, for both
#: budgeted searches, the slowest one measured: per search, the median of
#: 40 runs, in six rounds on a 2-vCPU host (Python 3.11) whose cores
#: switch between two speeds.  brute_force_aut, walking one automorphism
#: per torus coset, reached 25-142 nodes per ms on the four benchmark
#: walks (nf 4 and f1 4 over F5, nf 5 and f1 5 over F3); the normalizer,
#: walking one torus coset representative, 20-62 calls per ms (nf 6, f1 5
#: and nf 8 over F5, f1 6 over F7).  Both pay a per-search cost (the
#: family comparison; the family's torus) that fewer steps now share.
WALK_CALLS_PER_MS = 20


class UsageError(Exception):
    pass


def _parse_field(text: str) -> Field:
    if text == "Q":
        return QQ
    # any other text leaves an empty body, which int() rejects
    body = text[3:] if text.startswith("Fp:") else text[1:] if text.startswith("F") else ""
    try:
        p = int(body)
    except ValueError:
        raise UsageError(f"cannot parse field {text!r} (expected Q, F<p>, or Fp:<p>)") from None
    try:
        return Field(p)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_algebra(args) -> Algebra:
    if args.input:
        if args.family or args.dim is not None:
            raise UsageError("--input replaces --family/--dim")
        # ValueError also covers bad JSON, text that is not UTF-8 and integer
        # literals over int()'s digit limit; RecursionError, too deep nesting
        with open(args.input, encoding="utf-8") as handle:
            try:
                return Algebra.from_json(json.load(handle))
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise UsageError(f"malformed algebra document {args.input}: {exc}") from exc
    if not args.family or args.dim is None:
        raise UsageError("need --family and --dim (or --input)")
    return make_family(_FAMILY_FLAGS[args.family], args.dim, _parse_field(args.field))


def _algebra_header(alg: Algebra) -> dict:
    return {"algebra": {"family": alg.label, "dim": alg.dim}, "field": alg.field.to_json()}


def _budget(args) -> int:
    if args.budget_ms is not None:
        if args.budget_ms < 1:
            raise UsageError(f"--budget-ms must be at least 1, got {args.budget_ms}")
        return args.budget_ms * WALK_CALLS_PER_MS
    return DEFAULT_BUDGET


def _cmd_check(args):
    alg = _load_algebra(args)
    profile = nilpotency_profile(alg)
    doc = {
        "leibniz": check_leibniz(alg).ok,
        "null_filiform": profile.null_filiform,
        "nilpotency_index": profile.index,
    }
    return doc, 0 if doc["leibniz"] else 1


def _rows_json(field: Field, space) -> list[list]:
    """The raw basis rows of a subspace as JSON scalars ("p/q" over Q, ints over F_p)."""
    return [[Scalar(field, v).to_json() for v in row] for row in space.rows]


def _cmd_props(args):
    alg = _load_algebra(args)
    profile = nilpotency_profile(alg)
    doc = {
        **_algebra_header(alg),
        "leibniz": check_leibniz(alg).ok,
        "antisymmetric": is_antisymmetric(alg),
        "lcs_dims": list(profile.dims),
        "nilpotent": profile.nilpotent,
        "nilpotency_index": profile.index,
        "null_filiform": profile.null_filiform,
        "filiform": profile.filiform,
        "center": _rows_json(alg.field, center(alg)),
        "right_annihilator": _rows_json(alg.field, right_annihilator(alg)),
    }
    return doc, 0


def _cmd_gradings(args):
    alg = _load_algebra(args)
    if args.group:
        try:
            menu = [AbelianGroup.parse(args.group)]
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    else:
        menu = default_group_menu(alg.dim)
    hypothesis = FAMILY_HYPOTHESIS.get(alg.label)
    if hypothesis is None:
        raise UsageError(f"grading enumeration is not available for {alg.label!r}")
    found = enumerate_h1_gradings(alg, hypothesis, menu)
    return [g.to_json() for g in found], 0


def _cmd_aut_count(args):
    if args.budget_ms is not None and not args.brute_force:
        raise UsageError("--budget-ms applies only with --brute-force")
    alg = _load_algebra(args)
    if args.brute_force:
        report = brute_force_aut(alg, budget=_budget(args))
        check, count, matches, elapsed = (
            "aut-bruteforce", report.count, report.all_in_family, report.elapsed_ms)
    else:
        check, (count, _), matches, elapsed = (
            "aut-family-count", family_counts(alg.label, alg.dim, alg.field.p), None, 0)
    doc = {
        "check": check,
        **_algebra_header(alg),
        "count": count,
        "matches_family": matches,
        "elapsed_ms": elapsed,
    }
    if args.brute_force:
        doc["torus_size"] = report.torus_size
        doc["nodes"] = report.nodes
        doc["forced"] = report.forced
        doc["pruned"] = report.pruned
    return doc, 1 if matches is False else 0


def _cmd_normalizer(args):
    alg = _load_algebra(args)
    report = normalizer_equals_torus(alg, budget=_budget(args))
    doc = {
        "check": "normalizer",
        **_algebra_header(alg),
        "count": report.normalizer_size,
        "matches_family": report.holds,
        "torus_size": report.torus_size,
        "elapsed_ms": report.elapsed_ms,
        "nodes": report.nodes,
        "note": report.note,
    }
    return doc, 0 if report.holds else 1


def _cmd_verify_paper(args):
    threads = (os.cpu_count() or 1) if args.threads is None else args.threads
    if threads < 1:
        raise UsageError(f"--threads must be at least 1, got {threads}")
    if args.max_dim is not None and args.max_dim < 2:
        raise UsageError(f"--max-dim must be at least 2, the smallest dimension any claim uses, "
                         f"got {args.max_dim}")
    start, cpu_start = time.monotonic(), time.process_time()
    claims = run_all(max_dim=args.max_dim, threads=threads)
    doc = summarize(claims, int((time.monotonic() - start) * 1000),
                    int((time.process_time() - cpu_start) * 1000))
    return doc, 0 if doc["failed"] == 0 else 1


def _cmd_export(args):
    alg = _load_algebra(args)
    return alg.to_json(), 0


def _algebra_verb(verbs, name, run, helptext):
    """Add a verb that takes one algebra: --family/--dim/--field or --input."""
    sub = verbs.add_parser(name, help=helptext)
    sub.set_defaults(run=run)
    sub.add_argument("--family", choices=sorted(_FAMILY_FLAGS))
    sub.add_argument("--dim", type=int)
    sub.add_argument("--field", default="Q", help="Q (default), F<p>, or Fp:<p>")
    sub.add_argument("--input", help="path to an algebra JSON document")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graded-leibniz",
        description="Exact checks and grading classifications for nilpotent Leibniz algebra families.",
    )
    parser.add_argument("--json-indent", type=int, default=None)
    verbs = parser.add_subparsers(dest="verb", required=True)

    for name, run, helptext in (
        ("check", _cmd_check, "Leibniz identity and nilpotency summary"),
        ("props", _cmd_props, "structural invariants of one algebra"),
        ("export", _cmd_export, "emit the algebra as a JSON document"),
    ):
        _algebra_verb(verbs, name, run, helptext)

    sub = _algebra_verb(verbs, "gradings", _cmd_gradings, "enumerate gradings up to equivalence")
    sub.add_argument("--group", help=(
        'one target group instead of the default menu: "trivial", or factors joined '
        'by "x", the free factors "Z" first, then torsion factors "Z<m>" with each m >= 2 '
        'dividing the next, e.g. "Z", "Z6", "ZxZxZ2", "Z2xZ4", "ZxZ2xZ4"; '
        'any other name exits 2'))

    sub = _algebra_verb(verbs, "aut-count", _cmd_aut_count,
                        "automorphism count over a prime field")
    sub.add_argument("--brute-force", action="store_true",
                     help="exhaust all matrices instead of using the family formula")
    sub.add_argument("--budget-ms", type=int, default=None)

    sub = _algebra_verb(verbs, "normalizer", _cmd_normalizer,
                        "check that the torus is self-normalizing")
    sub.add_argument("--budget-ms", type=int, default=None)

    sub = verbs.add_parser("verify-paper", help="run the full verification suite")
    sub.set_defaults(run=_cmd_verify_paper)
    sub.add_argument("--max-dim", type=int, default=None)
    sub.add_argument("--threads", type=int, default=None,
                     help="worker pool size (default: cpu count)")

    return parser


#: built once per process: parsing leaves it unchanged, so every call reuses it
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.json_indent is not None and args.json_indent < 0:
            raise UsageError(f"--json-indent must be at least 0, got {args.json_indent}")
        doc, code = args.run(args)
    except (UsageError, GradedLeibnizError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(doc, indent=args.json_indent))
    return code


if __name__ == "__main__":
    sys.exit(main())
