"""Runnable verification suite for every built-in classification claim.

Each claim pairs a library computation against an independently
transcribed expectation (a frozen dimension sequence, automorphism
count, degree table, or catalog) and reports pass/fail with timing.
The toral case tables in this module are literal transcriptions of the
published component lists, written as index ranges; they deliberately
do not reuse the coarsening of the universal grading they are checking.

Each check is a plain function returning (passed, detail).
`all_claim_thunks` is the one claim table: it names every claim's
criterion, name, family, dimension and field once, next to its check and
arguments.  `run_all` executes the whole suite; each claim is
independent, so the optional worker pool changes nothing about the
output, which is always reported in deterministic construction order.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple

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
from .gradings import (
    Grading,
    coarsen,
    equivalent,
    homogeneous_partitions,
    universal_grading,
    verify_grading,
)
from .groups import AbelianGroup
from .snf import det_int, diagonal_of, int_mat_mul, smith_normal_form
from .torus import brute_force_aut, family_counts, normalizer_equals_torus

F5 = Field(5)


class Claim(NamedTuple):
    criterion: int
    name: str
    family: str | None
    dim: int | None
    field: str | None
    passed: bool
    detail: dict
    elapsed_ms: int
    #: the unrounded time, for the per-criterion sums; not in the report
    seconds: float

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


def _claim(criterion, name, family, dim, field, check, *args):
    """A zero-argument thunk: time `check(*args)`, which returns
    (passed, detail), and report it as one Claim.  The thunk's `criterion`
    attribute lets a caller run some criteria only."""
    def thunk() -> Claim:
        start = time.perf_counter()
        passed, detail = check(*args)
        seconds = time.perf_counter() - start
        return Claim(criterion, name, family, dim, None if field is None else repr(field),
                     passed, detail, int(seconds * 1000), seconds)

    thunk.criterion = criterion
    return thunk


# -- criterion 1: bracket identities ---------------------------------------

def _leibniz(family, n, field):
    alg = make_family(family, n, field)
    rep = check_leibniz(alg)
    detail = {}
    if not rep.ok:
        detail["violation"] = list(rep.first_violation)
    passed = rep.ok
    # the Lie families must be antisymmetric and the Leibniz ones not: nf
    # and f2 have [e_1, e_1] = e_2 and f1 has [e_2, e_1] = e_3 with
    # [e_1, e_2] = 0; f1 and f2 of dimension 2 are abelian, so say nothing
    lie = family in ("lie_l", "lie_q")
    if lie or n >= (2 if family == "nf" else 3):
        anti = is_antisymmetric(alg)
        detail["antisymmetric"] = anti
        passed = passed and anti == lie
    return passed, detail


# -- criterion 2: lower central series dimensions ---------------------------

def _lcs(family, n):
    dims = tuple(s.dim for s in lower_central_series(make_family(family, n)))
    if family == "nf":
        expected = tuple(range(n, -1, -1))
    else:
        expected = (n,) + tuple(range(n - 2, -1, -1))
    return dims == expected, {"dims": list(dims), "expected": list(expected)}


# -- criterion 3: center and right annihilator ------------------------------

def _center(n):
    alg = make_family("nf", n)
    c = center(alg)
    ra = right_annihilator(alg)
    e = [[int(k == j) for k in range(1, n + 1)] for j in range(n + 1)]  # e[j] = e_j
    c_ok = c.dim == 1 and c.contains(e[n])
    ra_ok = ra.dim == n - 1 and all(ra.contains(e[j]) for j in range(2, n + 1))
    return c_ok and ra_ok, {"center_dim": c.dim, "annihilator_dim": ra.dim}


# -- criterion 4: automorphism family exhaustiveness -------------------------

def _aut_exhaustion(family, n, p):
    rep = brute_force_aut(make_family(family, n, Field(p)))
    expected, _ = family_counts(family, n, p)
    passed = rep.all_in_family is True and rep.count == expected
    return passed, {
        "count": rep.count,
        "expected": expected,
        "all_in_family": rep.all_in_family,
        "torus_size": rep.torus_size,
        "nodes": rep.nodes,
        "forced": rep.forced,
        "pruned": rep.pruned,
    }


# -- criterion 5: normalizer of the torus ------------------------------------

def _normalizer(family, n, p):
    rep = normalizer_equals_torus(make_family(family, n, Field(p)))
    _, expected = family_counts(family, n, p)
    passed = rep.holds and rep.normalizer_size == expected
    return passed, {
        "holds": rep.holds,
        "normalizer_size": rep.normalizer_size,
        "torus_size": rep.torus_size,
        "nodes": rep.nodes,
    }


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


def _toral_table(base, case):
    """The universal grading `base` coarsened along the case's generator
    images, against the case's transcribed degrees."""
    name, group, image_coords, expected = case
    grading = coarsen(base, group, [group.element(c) for c in image_coords])
    got = [d.coords for d in grading.degrees]
    want = [group.element(c).coords for c in expected]
    ok = got == want and verify_grading(grading).ok
    detail = {"case": name}
    if not ok:
        detail |= {"got": [list(c) for c in got], "want": [list(c) for c in want]}
    return ok, detail


# -- criterion 7: enumeration against the catalogs ---------------------------

#: enumerations at or below this dimension are cross-checked by the menu sweep
SWEEP_CHECK_DIM = 4


def _enumeration(family, n):
    """Every class by lattice closure, one universal-grading representative
    each, against the catalog and the count n (nf) or n(n+1)/2 - 1 (f1, f2);
    small sizes also against the partitions of the menu sweep.

    `equivalent` is held to both sides: every catalog entry must be
    equivalent to the representative of its class, which grades by the
    universal group, mostly not the entry's, and no representative to the
    next one, whose class differs."""
    alg = make_family(family, n)
    partitions, lattices = homogeneous_partitions(alg)
    found = []
    for partition in partitions:
        pair = universal_grading(alg, partition)
        if pair is None:
            return False, {"reason": f"partition {partition} admits no grading"}
        found.append(pair[1])
    report = compare(found, catalog(family, n))
    count = n if family == "nf" else n * (n + 1) // 2 - 1
    representative = dict(zip(partitions, found))
    entries_equivalent = sum(
        equivalent(e.grading, representative[key]) for e in report.expected
        if (key := e.grading.partition()) in representative)
    neighbours_equivalent = sum(equivalent(a, b) for a, b in zip(found, found[1:]))
    agrees = None
    if n <= SWEEP_CHECK_DIM:
        swept = enumerate_h1_gradings(alg, FAMILY_HYPOTHESIS[family], default_group_menu(n))
        agrees = sorted(g.partition() for g in swept) == partitions
    passed = (report.ok and len(found) == count and agrees is not False
              and entries_equivalent == len(report.expected) and not neighbours_equivalent)
    return passed, {
        "classes": len(found),
        "missing": len(report.missing),
        "extra": len(report.extra),
        "expected_instances": len(report.expected),
        "entries_equivalent": entries_equivalent,
        "neighbours_equivalent": neighbours_equivalent,
        "lattices": lattices,
        "sweep_agrees": agrees,
    }


# -- criterion 8: direct-sum structure and lifted gradings -------------------

def _direct_sum(n):
    line = abelian_algebra(1)
    total = direct_sum(make_family("nf", n - 1), line)
    f2 = make_family("f2", n)
    structure_ok = total.same_structure(f2)
    lifted = []
    for entry in catalog("nf", n - 1):
        lifted.extend(lift_direct_sum_gradings(entry.grading))
    report = compare(lifted, catalog("f2", n))
    return structure_ok and report.ok, {
        "structure_equal": structure_ok,
        "lifted": len(lifted),
        "missing": len(report.missing),
        "extra": len(report.extra),
    }


# -- criterion 9: universal gradings -----------------------------------------

def _universal(family, n):
    pair = universal_grading(make_family(family, n))
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
    detail = {"group": group.describe()}
    if not ok:
        detail["degrees"] = [list(c) for c in got]
    return ok, detail


# -- criterion 10: randomized property suites --------------------------------

def _snf_suite():
    rng = random.Random(20260818)
    for trial in range(1000):
        # randrange(a, b + 1) is what randint(a, b) calls: the same draws
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
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
        if any(x < 0 for x in diag):
            return False, {"trial": trial, "reason": "negative diagonal entry"}
        for a, b in zip(diag, diag[1:]):
            if a == 0 and b != 0:
                return False, {"trial": trial, "reason": "zero before nonzero"}
            if a and b % a:
                return False, {"trial": trial, "reason": "divisibility broken"}
    return True, {"trials": 1000}


def _coarsening_suite():
    rng = random.Random(77002026)
    universal: dict[tuple, tuple] = {}
    by_algebra: dict[tuple, list] = {}
    pools: dict[AbelianGroup, list] = {}
    produced = rejected = 0
    while produced < 200:
        family = rng.choice(("nf", "f1", "f2"))
        n = rng.randint(3, 7)
        if (family, n) not in universal:
            source, base = universal[family, n] = universal_grading(make_family(family, n))
            # a non-grading: swapping the degrees of e_1 and e_n breaks
            # [e_1, e_1] = e_2 (nf, f2) and [e_2, e_1] = e_3 (f1); swapping
            # e_1 and e_2 would not do for f1 3, whose one bracket
            # [e_2, e_1] = e_3 is symmetric in their degrees
            d = base.degrees
            swapped = (d[-1],) + d[1:-1] + (d[0],)
            if verify_grading(Grading(base.algebra, source, swapped)).ok:
                return False, {"reason": f"{family} {n} with e_1, e_n degrees swapped verified"}
            rejected += 1
        source, base = universal[family, n]
        group = rng.choice(default_group_menu(n))
        # the universal groups are free, so independent uniform images
        # of the generators are a uniform draw from the homomorphisms
        if group not in pools:
            pools[group] = list(group.elements(free_bound=3))
        pool = pools[group]
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
    return True, {"coarsenings": produced, "swaps_rejected": rejected}


# -- harness -----------------------------------------------------------------

def all_claim_thunks(max_dim: int | None = None):
    """The claim table: zero-argument callables producing every claim, in
    report order.  `max_dim` caps the dimension of every family claim."""
    def upto(high: int) -> int:
        return (high if max_dim is None else min(high, max_dim)) + 1

    thunks = []
    for family in ("nf", "f1", "f2", "lie_l", "lie_q"):
        for n in range(2, upto(12), 2 if family == "lie_q" else 1):
            for field in (QQ, F5):
                thunks.append(_claim(1, "leibniz-identity", family, n, field,
                                     _leibniz, family, n, field))
    for family in ("nf", "f1", "f2"):
        for n in range(2, upto(12)):
            thunks.append(_claim(2, "lcs-dimensions", family, n, QQ, _lcs, family, n))
    for n in range(2, upto(10)):
        thunks.append(_claim(3, "center-and-annihilator", "nf", n, QQ, _center, n))
    # the f1 parametrization presupposes the chain relation, so its
    # exhaustive confirmation starts at dimension 3
    brute = [("nf", n, p) for p in (2, 3, 5) for n in (2, 3)]
    brute += [("f1", 3, p) for p in (2, 3, 5)] + [("nf", 4, 3), ("f1", 4, 3)]
    for family, n, p in brute:
        if max_dim is None or n <= max_dim:
            thunks.append(_claim(4, "aut-exhaustion", family, n, Field(p),
                                 _aut_exhaustion, family, n, p))
    for family, lo in (("nf", 2), ("f1", 3)):
        for n in range(lo, upto(5)):
            for p in (3, 5):
                thunks.append(_claim(5, "normalizer-equals-torus", family, n, Field(p),
                                     _normalizer, family, n, p))
    for family, lo, hi, cases in (("nf", 3, 9, nf_toral_cases), ("f1", 4, 8, f1_toral_cases)):
        for n in range(lo, upto(hi)):
            # one universal grading per algebra, shared by its cases
            _, base = universal_grading(make_family(family, n))
            for case in cases(n):
                thunks.append(_claim(6, f"toral-table-{case[0]}", family, n, QQ,
                                     _toral_table, base, case))
    for family, lo, hi in (("nf", 2, 8), ("f2", 3, 7), ("f1", 3, 6)):
        for n in range(lo, upto(hi)):
            thunks.append(_claim(7, "enumeration-vs-catalog", family, n, QQ,
                                 _enumeration, family, n))
    for n in range(3, upto(7)):
        thunks.append(_claim(8, "direct-sum-lift", "f2", n, QQ, _direct_sum, n))
    for family, lo in (("nf", 2), ("f1", 3), ("f2", 3)):
        for n in range(lo, upto(10)):
            thunks.append(_claim(9, "universal-grading", family, n, QQ, _universal, family, n))
    thunks.append(_claim(10, "snf-random-suite", None, None, None, _snf_suite))
    thunks.append(_claim(10, "coarsening-random-suite", None, None, None, _coarsening_suite))
    return thunks


def run_all(max_dim: int | None = None, threads: int | None = None) -> list[Claim]:
    """Run the full suite; output order never depends on scheduling."""
    thunks = all_claim_thunks(max_dim)
    workers = threads or 1
    if workers > 1:
        # imported here: concurrent.futures pulls in logging, which a
        # single-threaded run never needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(t) for t in thunks]
            return [f.result() for f in futures]
    return [t() for t in thunks]


def summarize(claims: list[Claim], elapsed_ms: int, cpu_ms: int) -> dict:
    """The verify-paper report; elapsed_ms is the run's wall time, not the
    sum of per-claim times, which overstates it when claims overlap in a
    worker pool, and cpu_ms the process CPU time over all its threads.
    `criteria` rolls the claims up per criterion: how many, how many
    failed, and their total time in ms, the unrounded times summed and
    then rounded (summing each claim's truncated elapsed_ms would read 0
    for a criterion of many sub-millisecond claims)."""
    failed = [c for c in claims if not c.passed]
    criteria: dict[str, dict] = {}
    for n in sorted({c.criterion for c in claims}):
        mine = [c for c in claims if c.criterion == n]
        criteria[str(n)] = {
            "claims": len(mine),
            "failed": sum(not c.passed for c in mine),
            "elapsed_ms": round(sum(c.seconds for c in mine) * 1000),
        }
    return {
        "claims": [c.to_json() for c in claims],
        "criteria": criteria,
        "total": len(claims),
        "passed": len(claims) - len(failed),
        "failed": len(failed),
        "elapsed_ms": elapsed_ms,
        "cpu_ms": cpu_ms,
    }
