"""Inputs, operations and output checks of the benchmark workloads.

All inputs are fixed mathematical objects.  The seed only permutes the
order of requests in `structure` and of families in `enumerate`; no
result depends on it.  Every check is computed here from closed forms
(automorphism counts, lower central series dimensions, universal
groups) rather than read from the library's own pass flags, wherever a
closed form exists.

Library functions are looked up on their modules at call time, so the
tracer's wrappers apply when a traced pass runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from typing import Callable, NamedTuple

from spans import layer_modules

WORKLOADS = ("verify-paper", "enumerate", "aut-fp", "structure")

#: claims `verify-paper` must report
VERIFY_PAPER_CLAIMS = 366

_HYPOTHESIS = {"nf": "e1_homog", "f1": "e1_e2_homog", "f2": "e1_homog"}
_CLI_FAMILY = {"nf": "nf", "f1": "f1", "f2": "f2", "lie_l": "lie-l", "lie_q": "lie-q"}

ENUMERATE_CASES = (("nf", 10), ("f1", 7), ("f2", 7))
BRUTE_CASES = (("nf", 4, 5), ("nf", 5, 3), ("f1", 4, 5), ("f1", 5, 3))
NORMALIZER_CASES = (("f1", 5, 5), ("nf", 6, 5))
STRUCTURE_DIMS = (12, 16, 20, 24)
STRUCTURE_FIELDS = ("Q", "F5")


# -- closed forms ------------------------------------------------------------

def lcs_dims(family: str, n: int) -> list[int]:
    """Lower central series dimensions: nf drops by one, f1/f2 by two then one."""
    if family == "nf":
        return list(range(n, -1, -1))
    return [n] + list(range(n - 2, -1, -1))


def aut_count(family: str, n: int, p: int) -> int:
    """|Aut| over F_p: (p-1) p^(n-1) for nf, (p-1)^2 p^(n-1) for f1."""
    return (p - 1) ** (1 if family == "nf" else 2) * p ** (n - 1)


def torus_size(family: str, p: int) -> int:
    return (p - 1) ** (1 if family == "nf" else 2)


def universal_degrees(family: str, n: int) -> tuple[int, list[tuple[int, ...]]]:
    """(free rank, degree coordinates) of the universal grading."""
    if family == "nf":
        return 1, [(j,) for j in range(1, n + 1)]
    if family == "f1":
        return 2, [(1, 0), (0, 1)] + [(i - 2, 1) for i in range(3, n + 1)]
    return 2, [(j, 0) for j in range(1, n)] + [(0, 1)]


def _field_prime(text: str | None) -> int | None:
    return int(text[1:]) if text and text.startswith("F") else None


def check_claim(claim: dict) -> list[str]:
    """Failures of one `verify-paper` claim, recomputed where a closed form exists."""
    c, fam, n, p, d = (claim["criterion"], claim["family"], claim["dim"],
                       _field_prime(claim["field"]), claim["detail"])
    failures = [] if claim["pass"] else ["claim reports failure"]
    if c == 2 and d.get("dims") != lcs_dims(fam, n):
        failures.append(f"LCS dims {d.get('dims')} != {lcs_dims(fam, n)}")
    if c == 3 and (d.get("center_dim"), d.get("annihilator_dim")) != (1, n - 1):
        failures.append("center/annihilator dimensions")
    if c == 4 and (d.get("count") != aut_count(fam, n, p) or d.get("all_in_family") is not True):
        failures.append(f"aut count {d.get('count')} != {aut_count(fam, n, p)}")
    if c == 5 and not (d.get("holds") is True
                       and d.get("normalizer_size") == d.get("torus_size") == torus_size(fam, p)):
        failures.append("normalizer is not the torus")
    if c == 7 and (d.get("missing"), d.get("extra")) != (0, 0):
        failures.append("enumeration misses or adds classes")
    if c == 9 and d.get("group") != ("Z" if fam == "nf" else "Z x Z"):
        failures.append(f"universal group {d.get('group')}")
    return failures


def check_verify_paper(code: int, stdout: str) -> tuple[int, int, list, list[str]]:
    """(attempted, failed, canonical claims, failure notes) of one invocation.

    The canonical claims drop `elapsed_ms`, the only field that may
    differ between two correct runs.
    """
    try:
        doc = json.loads(stdout)
        claims = doc["claims"]
    except (ValueError, KeyError, TypeError):
        return VERIFY_PAPER_CLAIMS, VERIFY_PAPER_CLAIMS, [], ["no claim JSON on stdout"]
    notes = []
    failed = 0
    for claim in claims:
        bad = check_claim(claim)
        if bad:
            failed += 1
            notes.append(f"{claim['claim']} {claim['family']} {claim['dim']}: {'; '.join(bad)}")
    attempted = max(len(claims), VERIFY_PAPER_CLAIMS)
    if len(claims) != VERIFY_PAPER_CLAIMS or doc.get("total") != VERIFY_PAPER_CLAIMS:
        failed += abs(VERIFY_PAPER_CLAIMS - len(claims)) or 1
        notes.append(f"{len(claims)} claims, want {VERIFY_PAPER_CLAIMS}")
    if code != 0 or doc.get("failed") != 0:
        notes.append(f"exit code {code}, failed {doc.get('failed')}")
        failed = max(failed, 1)
    canon = [{k: v for k, v in claim.items() if k != "elapsed_ms"} for claim in claims]
    return attempted, min(failed, attempted), canon, notes


# -- in-process operations ---------------------------------------------------

class Op(NamedTuple):
    """One timed call: `run` returns the output, `check` returns
    (failure notes, canonical output for the traced/untraced comparison)."""

    key: str
    run: Callable
    check: Callable


def enumerate_ops(seed: int) -> list[Op]:
    mods = layer_modules()
    cases = list(ENUMERATE_CASES)
    random.Random(seed).shuffle(cases)
    ops = []
    for family, n in cases:
        alg = mods["algebras"].make_family(family, n)
        menu = mods["catalog"].default_group_menu(n)

        def run(alg=alg, family=family, n=n, menu=menu):
            cat = mods["catalog"]
            found = cat.enumerate_h1_gradings(alg, _HYPOTHESIS[family], menu)
            return found, cat.compare(found, cat.catalog(family, n))

        def check(out):
            found, report = out
            parts = [g.partition() for g in found]
            want = {e.grading.partition() for e in report.expected}
            notes = []
            if not report.ok:
                notes.append("compare() reports missing or extra classes")
            if len(set(parts)) != len(parts):
                notes.append("two enumerated classes share a partition")
            if set(parts) != want:
                notes.append("enumerated partitions differ from the catalog's")
            return notes, sorted(parts)

        ops.append(Op(f"enumerate {family} {n}", run, check))
    return ops


def aut_fp_ops(seed: int) -> list[Op]:
    mods = layer_modules()
    ops = []
    for family, n, p in BRUTE_CASES:
        alg = mods["algebras"].make_family(family, n, mods["fields"].Field(p))

        # The default budget gates on the raw p^(n^2) matrix count and
        # refuses every one of these searches, although the pruned walk
        # finishes them in about a second; pass the raw size as budget.
        def run(alg=alg, p=p, n=n):
            return mods["torus"].brute_force_aut(alg, budget=p ** (n * n))

        def check(rep, family=family, n=n, p=p):
            want = aut_count(family, n, p)
            notes = []
            if rep.count != want:
                notes.append(f"{rep.count} automorphisms, closed form {want}")
            if rep.all_in_family is not True:
                notes.append(f"all_in_family is {rep.all_in_family}")
            return notes, [rep.count, rep.all_in_family]

        ops.append(Op(f"brute_force_aut {family} {n} F{p}", run, check))
    for family, n, p in NORMALIZER_CASES:
        alg = mods["algebras"].make_family(family, n, mods["fields"].Field(p))

        def run(alg=alg):
            return mods["torus"].normalizer_equals_torus(alg)

        def check(rep, family=family, p=p):
            want = torus_size(family, p)
            notes = []
            if rep.holds is not True or rep.normalizer_size != want:
                notes.append(f"normalizer size {rep.normalizer_size}, closed form {want}")
            return notes, [rep.holds, rep.normalizer_size, rep.torus_size]

        ops.append(Op(f"normalizer_equals_torus {family} {n} F{p}", run, check))
    return ops


def _cli_request(mods, verb, family, n, field):
    argv = [verb, "--family", _CLI_FAMILY[family], "--dim", str(n), "--field", field]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mods["cli"].main(argv)
        return code, buf.getvalue()

    def check(out):
        code, text = out
        notes = [] if code == 0 else [f"exit code {code}"]
        try:
            doc = json.loads(text)
        except ValueError:
            return notes + ["no JSON on stdout"], [code, text]
        if doc.get("leibniz") is not True:
            notes.append("leibniz is not true")
        if verb == "check" and family == "nf" and doc.get("null_filiform") is not True:
            notes.append("nf is not reported null-filiform")
        if verb == "props" and family in ("nf", "f1", "f2") and doc.get("lcs_dims") != lcs_dims(family, n):
            notes.append(f"lcs_dims {doc.get('lcs_dims')} != {lcs_dims(family, n)}")
        return notes, [code, text]

    return Op(" ".join(argv), run, check)


def _universal_request(mods, family, n, field):
    k = mods["fields"].QQ if field == "Q" else mods["fields"].Field(int(field[1:]))
    alg = mods["algebras"].make_family(family, n, k)

    def run():
        return mods["gradings"].universal_grading(alg)

    def check(pair):
        if pair is None:
            return ["no universal grading"], None
        group, grading = pair
        rank, degrees = universal_degrees(family, n)
        got = [d.coords for d in grading.degrees]
        notes = []
        if (group.free_rank, group.torsion) != (rank, ()):
            notes.append(f"universal group {group.describe()}, want Z^{rank}")
        if got != degrees:
            notes.append("universal degrees differ from the closed form")
        return notes, [group.describe(), [list(c) for c in got]]

    return Op(f"universal_grading {family} {n} {field}", run, check)


def structure_ops(seed: int) -> list[Op]:
    mods = layer_modules()
    ops = []
    for verb in ("check", "props"):
        for family in ("nf", "f1", "f2", "lie_l", "lie_q"):
            for n in STRUCTURE_DIMS:
                for field in STRUCTURE_FIELDS:
                    ops.append(_cli_request(mods, verb, family, n, field))
    for family in ("nf", "f1", "f2"):
        for n in STRUCTURE_DIMS:
            for field in STRUCTURE_FIELDS:
                ops.append(_universal_request(mods, family, n, field))
    random.Random(seed).shuffle(ops)
    return ops


IN_PROCESS = {"enumerate": enumerate_ops, "aut-fp": aut_fp_ops, "structure": structure_ops}


def run_pass(ops: list[Op], tracer=None) -> dict:
    """Run every op once, timing each call, then check the outputs.

    `starts_s` holds the ``perf_counter`` time each call started, which
    on Linux reads CLOCK_MONOTONIC and so compares with the parent's
    samples of host speed.

    With a tracer, its wrappers come off before the checks run, so the
    spans cover only the library's own work.
    """
    latencies, starts, cpu, results = [], [], 0.0, []
    try:
        for number, op in enumerate(ops, start=1):
            if tracer is not None:
                tracer.op = number
            c0 = time.process_time()
            t0 = time.perf_counter()
            out = op.run()
            t1 = time.perf_counter()
            cpu += time.process_time() - c0
            latencies.append(t1 - t0)
            starts.append(t0)
            results.append(out)
        if tracer is not None:
            tracer.assert_installed()
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed, notes, outputs = 0, [], []
    for op, out in zip(ops, results):
        bad, canon = op.check(out)
        if bad:
            failed += 1
            notes.append(f"{op.key}: {'; '.join(bad)}")
        outputs.append([op.key, canon])
    return {"wall_s": sum(latencies), "cpu_s": cpu, "latencies_s": latencies,
            "starts_s": starts,
            "attempted": len(ops), "failed": failed, "notes": notes, "outputs": outputs}
