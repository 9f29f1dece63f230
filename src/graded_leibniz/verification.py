"""Runnable verification suite for every built-in classification claim.

Each claim pairs a library computation against an independently
transcribed expectation (a frozen dimension sequence, automorphism
count, degree table, or catalog) and reports pass/fail with timing.
The toral case tables in this module are literal transcriptions of the
published component lists, written as index ranges; they deliberately
do not reuse the weight-specialization code they are checking.

`run_all` executes the whole suite; each claim is independent, so the
optional worker pool changes nothing about the output, which is always
reported in deterministic construction order.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .algebras import (
    abelian_algebra,
    center,
    check_leibniz,
    direct_sum,
    is_antisymmetric,
    lower_central_series,
    make_family,
    right_annihilator,
)
from .catalog import (
    FAMILY_HYPOTHESIS,
    catalog,
    compare,
    default_group_menu,
    enumerate_h1_gradings,
    lift_direct_sum_gradings,
)
from .fields import QQ, Field
from .gradings import coarsen, equivalent, universal_grading, verify_grading
from .groups import AbelianGroup
from .linalg import unit_vector
from .snf import det_int, diagonal_of, int_mat_mul, smith_normal_form
from .torus import (
    Specialization,
    brute_force_aut,
    family_counts,
    normalizer_equals_torus,
    toral_grading,
    weight_system,
)

F5 = Field(5)


@dataclass
class Claim:
    criterion: int
    name: str
    family: str | None
    dim: int | None
    field: str | None
    passed: bool
    detail: dict
    elapsed_ms: int

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "claim": self.name,
            "family": self.family,
            "dim": self.dim,
            "field": self.field,
            "pass": self.passed,
            "detail": self.detail,
            "elapsed_ms": self.elapsed_ms,
        }


def _run(criterion, name, family, dim, field, fn) -> Claim:
    start = time.monotonic()
    passed, detail = fn()
    elapsed = int((time.monotonic() - start) * 1000)
    return Claim(criterion, name, family, dim,
                 None if field is None else repr(field), passed, detail, elapsed)


def _cap(high: int, max_dim: int | None) -> int:
    return high if max_dim is None else min(high, max_dim)


# -- criterion 1: bracket identities ---------------------------------------

def _leibniz_tasks(max_dim):
    tasks = []
    for family in ("nf", "f1", "f2", "lie_l", "lie_q"):
        for n in range(2, _cap(12, max_dim) + 1):
            if family == "lie_q" and n % 2:
                continue
            for field in (QQ, F5):
                tasks.append((family, n, field))
    return tasks


def _check_leibniz_claim(family, n, field):
    def body():
        alg = make_family(family, n, field)
        rep = check_leibniz(alg)
        detail = {}
        if not rep.ok:
            detail["violation"] = list(rep.first_violation)
        passed = rep.ok
        if family in ("lie_l", "lie_q"):
            anti = is_antisymmetric(alg)
            detail["antisymmetric"] = anti
            passed = passed and anti
        return passed, detail

    return _run(1, "leibniz-identity", family, n, field, body)


# -- criterion 2: lower central series dimensions ---------------------------

def _lcs_claim(family, n):
    def body():
        dims = tuple(s.dim for s in lower_central_series(make_family(family, n)))
        if family == "nf":
            expected = tuple(range(n, -1, -1))
        else:
            expected = (n,) + tuple(range(n - 2, -1, -1))
        return dims == expected, {"dims": list(dims), "expected": list(expected)}

    return _run(2, "lcs-dimensions", family, n, QQ, body)


# -- criterion 3: center and right annihilator ------------------------------

def _center_claim(n):
    def body():
        alg = make_family("nf", n)
        c = center(alg)
        ra = right_annihilator(alg)
        c_ok = c.dim == 1 and c.contains(unit_vector(alg.field, n, n))
        ra_ok = ra.dim == n - 1 and all(
            ra.contains(unit_vector(alg.field, n, j)) for j in range(2, n + 1)
        )
        return c_ok and ra_ok, {"center_dim": c.dim, "annihilator_dim": ra.dim}

    return _run(3, "center-and-annihilator", "nf", n, QQ, body)


# -- criterion 4: automorphism family exhaustiveness -------------------------

def _brute_cases(max_dim):
    # the f1 parametrization presupposes the chain relation, so its
    # exhaustive confirmation starts at dimension 3
    cases = [("nf", n, p) for p in (2, 3, 5) for n in (2, 3)]
    cases += [("f1", 3, p) for p in (2, 3, 5)]
    cases += [("nf", 4, 3), ("f1", 4, 3)]
    return [(f, n, p) for f, n, p in cases if max_dim is None or n <= max_dim]


def _brute_claim(family, n, p):
    def body():
        alg = make_family(family, n, Field(p))
        rep = brute_force_aut(alg)
        expected, _ = family_counts(family, n, p)
        passed = rep.all_in_family is True and rep.count == expected
        return passed, {
            "count": rep.count,
            "expected": expected,
            "all_in_family": rep.all_in_family,
            "nodes": rep.nodes,
        }

    return _run(4, "aut-exhaustion", family, n, Field(p), body)


# -- criterion 5: normalizer of the torus ------------------------------------

def _normalizer_claim(family, n, p):
    def body():
        rep = normalizer_equals_torus(make_family(family, n, Field(p)))
        _, expected = family_counts(family, n, p)
        passed = rep.holds and rep.normalizer_size == expected
        return passed, {
            "holds": rep.holds,
            "normalizer_size": rep.normalizer_size,
            "torus_size": rep.torus_size,
        }

    return _run(5, "normalizer-equals-torus", family, n, Field(p), body)


# -- criterion 6: toral degree tables ----------------------------------------

def nf_toral_cases(n: int):
    """(name, group, generator images, expected degree coords) per case."""
    cases = []
    z = AbelianGroup(1)
    cases.append(("generic-order", z, ((1,),), [(j,) for j in range(1, n + 1)]))
    triv = AbelianGroup()
    cases.append(("all-params-one", triv, ((),), [() for _ in range(n)]))

    z2 = AbelianGroup(0, (2,))
    if n % 2 == 0:
        ones, zeros = range(1, n, 2), range(2, n + 1, 2)
    else:
        ones, zeros = range(1, n + 1, 2), range(2, n, 2)
    table = {j: 1 for j in ones} | {j: 0 for j in zeros}
    cases.append(("order-two", z2, ((1,),), [(table[j],) for j in range(1, n + 1)]))

    if n >= 4:
        z3 = AbelianGroup(0, (3,))
        if n % 3 == 0:
            comps = {1: range(1, n - 1, 3), 2: range(2, n, 3), 0: range(3, n + 1, 3)}
        elif n % 3 == 2:
            comps = {1: range(1, n, 3), 2: range(2, n + 1, 3), 0: range(3, n - 1, 3)}
        else:
            comps = {1: range(1, n + 1, 3), 2: range(2, n - 1, 3), 0: range(3, n, 3)}
        table = {j: d for d, js in comps.items() for j in js}
        cases.append(("order-three", z3, ((1,),), [(table[j],) for j in range(1, n + 1)]))

    for i in range(2, n):
        zi = AbelianGroup(0, (i,))
        table = {}
        for k in range(1, i):
            for j in range(k, n + 1, i):
                table[j] = k
        for j in range(i, n + 1, i):
            table[j] = 0
        cases.append(
            (f"order-{i}-residues", zi, ((1,),), [(table[j],) for j in range(1, n + 1)])
        )
    return cases


def f1_toral_cases(n: int):
    """(name, group, (image of a, image of b), expected degree coords)."""
    cases = []
    triv = AbelianGroup()
    z = AbelianGroup(1)
    z2 = AbelianGroup(0, (2,))
    cases.append(("both-params-one", triv, ((), ()), [() for _ in range(n)]))
    for i in range(2, n):
        zi = AbelianGroup(0, (i,))
        expected = [(1,)] + [((j - 1) % i,) for j in range(2, n + 1)]
        cases.append((f"equal-params-order-{i}", zi, ((1,), (1,)), expected))
    cases.append(
        ("equal-params-free", z, ((1,), (1,)),
         [(1,)] + [(j - 1,) for j in range(2, n + 1)])
    )
    cases.append(
        ("first-param-one", z2, ((0,), (1,)), [(0,)] + [(1,)] * (n - 1))
    )
    evens = {j: 0 for j in range(2, n + 1, 2)}
    odds = {j: 1 for j in range(1, n + 1, 2)}
    parity = evens | odds
    cases.append(
        ("first-param-minus-one-second-one", z2, ((1,), (0,)),
         [(parity[j],) for j in range(1, n + 1)])
    )
    zxz2 = AbelianGroup(1, (2,))
    expected = [(0, 1)] + [(1, j % 2) for j in range(2, n + 1)]
    cases.append(("first-param-minus-one", zxz2, ((0, 1), (1, 0)), expected))
    for i in range(3, n - 1):
        zi = AbelianGroup(0, (i,))
        expected = [(1,)] + [((j - 2) % i,) for j in range(2, n + 1)]
        cases.append((f"second-param-one-order-{i}", zi, ((1,), (0,)), expected))
    cases.append(
        ("second-param-one-free", z, ((1,), (0,)),
         [(1,)] + [(j - 2,) for j in range(2, n + 1)])
    )
    cases.append(
        ("all-diagonal-distinct", z, ((1,), (2,)), [(j,) for j in range(1, n + 1)])
    )
    for i in range(3, n - 2):
        zxzi = AbelianGroup(1, (i,))
        expected = [(0, 1)] + [(1, (j - 2) % i) for j in range(2, n + 1)]
        cases.append((f"chain-period-{i}", zxzi, ((0, 1), (1, 0)), expected))
    for i in range(4, n + 1):
        expected = [(1,)] + [(j + 1 - i,) for j in range(2, n + 1)]
        cases.append((f"first-meets-chain-at-{i}", z, ((1,), (3 - i,)), expected))
    for i in range(3, n - 2):
        zi = AbelianGroup(0, (i,))
        for off in range(3, n - i + 1):
            expected = [(1,)] + [((j + 1 - off) % i,) for j in range(2, n + 1)]
            cases.append(
                (f"first-meets-chain-period-{i}-offset-{off}", zi,
                 ((1,), ((3 - off) % i,)), expected)
            )
    return cases


def _toral_claim(family, n, case):
    name, group, image_coords, expected = case

    def body():
        alg = make_family(family, n)
        ws = weight_system(family, n)
        images = tuple(group.element(c) for c in image_coords)
        grading = toral_grading(alg, ws, Specialization(group, images))
        got = [d.coords for d in grading.degrees]
        want = [group.element(c).coords for c in expected]
        ok = got == want and verify_grading(grading).ok
        detail = {"case": name}
        if not ok:
            detail |= {"got": [list(c) for c in got], "want": [list(c) for c in want]}
        return ok, detail

    return _run(6, f"toral-table-{name}", family, n, QQ, body)


# -- criterion 7: enumeration against the catalogs ---------------------------

def _enumeration_claim(family, n):
    def body():
        alg = make_family(family, n)
        found = enumerate_h1_gradings(alg, FAMILY_HYPOTHESIS[family], default_group_menu(n))
        report = compare(found, catalog(family, n))
        return report.ok, {
            "classes": len(found),
            "missing": len(report.missing),
            "extra": len(report.extra),
            "expected_instances": len(report.expected),
        }

    return _run(7, "enumeration-vs-catalog", family, n, QQ, body)


# -- criterion 8: direct-sum structure and lifted gradings -------------------

def _direct_sum_claim(n):
    def body():
        line = abelian_algebra(1)
        total = direct_sum(make_family("nf", n - 1), line)
        f2 = make_family("f2", n)
        structure_ok = total.same_structure(f2)
        lifted = []
        for entry in catalog("nf", n - 1):
            lifted.extend(lift_direct_sum_gradings(entry.grading, line))
        report = compare(lifted, catalog("f2", n))
        return structure_ok and report.ok, {
            "structure_equal": structure_ok,
            "lifted": len(lifted),
            "missing": len(report.missing),
            "extra": len(report.extra),
        }

    return _run(8, "direct-sum-lift", "f2", n, QQ, body)


# -- criterion 9: universal gradings -----------------------------------------

def _universal_claim(family, n):
    def body():
        alg = make_family(family, n)
        pair = universal_grading(alg)
        if pair is None:
            return False, {"reason": "no universal grading"}
        group, grading = pair
        if family == "nf":
            want_group = AbelianGroup(1)
            want = [(j,) for j in range(1, n + 1)]
        elif family == "f1":
            want_group = AbelianGroup(2)
            want = [(1, 0), (0, 1)] + [(i - 2, 1) for i in range(3, n + 1)]
        else:
            want_group = AbelianGroup(2)
            want = [(j, 0) for j in range(1, n)] + [(0, 1)]
        got = [d.coords for d in grading.degrees]
        ok = group == want_group and got == want
        if family in ("nf", "f1"):
            ok = ok and tuple(got) == weight_system(family, n).weights
        detail = {"group": group.describe()}
        if not ok:
            detail["degrees"] = [list(c) for c in got]
        return ok, detail

    return _run(9, "universal-grading", family, n, QQ, body)


# -- criterion 10: randomized property suites --------------------------------

def _snf_suite_claim():
    def body():
        rng = random.Random(20260818)
        for trial in range(1000):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            u, d, v = smith_normal_form(m)
            if int_mat_mul(int_mat_mul(u, m), v) != d:
                return False, {"trial": trial, "reason": "U*M*V != D"}
            if det_int(u) not in (1, -1) or det_int(v) not in (1, -1):
                return False, {"trial": trial, "reason": "non-unimodular transform"}
            diag = diagonal_of(d)
            for i in range(rows):
                for j in range(cols):
                    if i != j and d[i][j]:
                        return False, {"trial": trial, "reason": "off-diagonal entry"}
            for a, b in zip(diag, diag[1:]):
                if a == 0 and b != 0:
                    return False, {"trial": trial, "reason": "zero before nonzero"}
                if a and b % a:
                    return False, {"trial": trial, "reason": "divisibility broken"}
        return True, {"trials": 1000}

    return _run(10, "snf-random-suite", None, None, None, body)


def _coarsening_suite_claim():
    def body():
        rng = random.Random(77002026)
        universal: dict[tuple, tuple] = {}
        by_algebra: dict[tuple, list] = {}
        produced = 0
        while produced < 200:
            family = rng.choice(("nf", "f1", "f2"))
            n = rng.randint(3, 7)
            if (family, n) not in universal:
                universal[family, n] = universal_grading(make_family(family, n))
            source, base = universal[family, n]
            group = rng.choice(default_group_menu(n))
            # the universal groups are free, so independent uniform images
            # of the generators are a uniform draw from the homomorphisms
            pool = list(group.elements(free_bound=3))
            images = [rng.choice(pool) for _ in range(source.ngens)]
            grading = coarsen(base, group, images)
            if not verify_grading(grading).ok:
                return False, {"reason": "coarsening failed verify_grading"}
            if not equivalent(grading, grading):
                return False, {"reason": "equivalence not reflexive"}
            by_algebra.setdefault((family, n), []).append(grading)
            produced += 1
        for gradings in by_algebra.values():
            for _ in range(30):
                g1, g2, g3 = (rng.choice(gradings) for _ in range(3))
                if equivalent(g1, g2) != equivalent(g2, g1):
                    return False, {"reason": "equivalence not symmetric"}
                if equivalent(g1, g2) and equivalent(g2, g3) and not equivalent(g1, g3):
                    return False, {"reason": "equivalence not transitive"}
        return True, {"coarsenings": produced}

    return _run(10, "coarsening-random-suite", None, None, None, body)


# -- harness -----------------------------------------------------------------

def all_claim_thunks(max_dim: int | None = None):
    """Zero-argument callables producing every claim, in report order."""
    thunks = []
    for family, n, field in _leibniz_tasks(max_dim):
        thunks.append(lambda f=family, d=n, k=field: _check_leibniz_claim(f, d, k))
    for family in ("nf", "f1", "f2"):
        for n in range(2, _cap(12, max_dim) + 1):
            thunks.append(lambda f=family, d=n: _lcs_claim(f, d))
    for n in range(2, _cap(10, max_dim) + 1):
        thunks.append(lambda d=n: _center_claim(d))
    for family, n, p in _brute_cases(max_dim):
        thunks.append(lambda f=family, d=n, q=p: _brute_claim(f, d, q))
    for family, lo in (("nf", 2), ("f1", 3)):
        for n in range(lo, _cap(5, max_dim) + 1):
            for p in (3, 5):
                thunks.append(lambda f=family, d=n, q=p: _normalizer_claim(f, d, q))
    for n in range(3, _cap(9, max_dim) + 1):
        for case in nf_toral_cases(n):
            thunks.append(lambda d=n, c=case: _toral_claim("nf", d, c))
    for n in range(4, _cap(8, max_dim) + 1):
        for case in f1_toral_cases(n):
            thunks.append(lambda d=n, c=case: _toral_claim("f1", d, c))
    for family, lo, hi in (("nf", 2, 8), ("f2", 3, 7), ("f1", 3, 6)):
        for n in range(lo, _cap(hi, max_dim) + 1):
            thunks.append(lambda f=family, d=n: _enumeration_claim(f, d))
    for n in range(3, _cap(7, max_dim) + 1):
        thunks.append(lambda d=n: _direct_sum_claim(d))
    for family, lo in (("nf", 2), ("f1", 3), ("f2", 3)):
        for n in range(lo, _cap(10, max_dim) + 1):
            thunks.append(lambda f=family, d=n: _universal_claim(f, d))
    thunks.append(_snf_suite_claim)
    thunks.append(_coarsening_suite_claim)
    return thunks


def run_all(max_dim: int | None = None, threads: int | None = None) -> list[Claim]:
    """Run the full suite; output order never depends on scheduling."""
    thunks = all_claim_thunks(max_dim)
    workers = threads or 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(t) for t in thunks]
            return [f.result() for f in futures]
    return [t() for t in thunks]


def summarize(claims: list[Claim], elapsed_ms: int) -> dict:
    """The verify-paper report; elapsed_ms is the run's wall time, not the
    sum of per-claim times, which overstates it when claims overlap in a
    worker pool."""
    failed = [c for c in claims if not c.passed]
    return {
        "claims": [c.to_json() for c in claims],
        "total": len(claims),
        "passed": len(claims) - len(failed),
        "failed": len(failed),
        "elapsed_ms": elapsed_ms,
    }
