"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Each criterion test drains the corresponding bucket of verification
claims, checks coverage of the required parameter ranges, enforces the
stated time limits, and fails with the details of every claim that did
not pass.  All comparisons inside the claims are exact; no tolerances
anywhere.
"""

import hashlib
import json
from fractions import Fraction

from graded_leibniz import (
    AbelianGroup,
    Field,
    QQ,
    catalog,
    compare,
    default_group_menu,
    enumerate_h1_gradings,
    make_family,
    universal_grading,
)
from graded_leibniz.verification import summarize


def _report(number, title, claims, extra_ok=True, notes=""):
    failed = [c for c in claims if not c.passed]
    status = "PASS" if (not failed and claims and extra_ok) else "FAIL"
    line = f"ACCEPTANCE criterion {number} ({title}): {status} [{len(claims)} claims]"
    if notes:
        line += f" {notes}"
    print(line)
    assert claims, f"criterion {number}: no claims ran"
    assert not failed, [
        (c.name, c.family, c.dim, c.field, c.detail) for c in failed
    ]
    assert extra_ok


def _covered(claims):
    return {(c.family, c.dim, c.field) for c in claims}


def test_criterion_01_leibniz_families(claims_by_criterion):
    claims = claims_by_criterion[1]
    seen = _covered(claims)
    for family in ("nf", "f1", "f2", "lie_l"):
        for n in range(2, 13):
            for field in ("Q", "F5"):
                assert (family, n, field) in seen
    for n in range(2, 13, 2):
        assert ("lie_q", n, "Q") in seen and ("lie_q", n, "F5") in seen
    assert len(claims) == 100
    slow = [c for c in claims if c.elapsed_ms >= 1000]
    _report(1, "Leibniz identity, five families, two fields", claims,
            extra_ok=not slow, notes="all under 1s" if not slow else f"slow: {slow}")


def test_criterion_02_lower_central_series(claims_by_criterion):
    claims = claims_by_criterion[2]
    seen = _covered(claims)
    for family in ("nf", "f1", "f2"):
        for n in range(2, 13):
            assert (family, n, "Q") in seen
    _report(2, "lower central series dimension sequences", claims)


def test_criterion_03_center_and_annihilator(claims_by_criterion):
    claims = claims_by_criterion[3]
    assert {c.dim for c in claims} == set(range(2, 11))
    _report(3, "center and right annihilator of the chain family", claims)


def test_criterion_04_aut_exhaustion(claims_by_criterion):
    claims = claims_by_criterion[4]
    seen = _covered(claims)
    for p in (2, 3, 5):
        for n in (2, 3):
            assert ("nf", n, f"F{p}") in seen
        assert ("f1", 3, f"F{p}") in seen
    assert ("nf", 4, "F3") in seen and ("f1", 4, "F3") in seen
    # the walk's work: a call for the empty prefix and one per leaf at least,
    # and a leaf per torus coset
    assert all(c.detail["nodes"] > c.detail["count"] // c.detail["torus_size"] for c in claims)
    # the walk's counters follow its node count; each forced column is
    # computed at a node, so there are fewer of them than nodes
    assert all(list(c.detail)[-3:] == ["nodes", "forced", "pruned"] for c in claims)
    assert all(0 < c.detail["forced"] < c.detail["nodes"] for c in claims)
    slow = [c for c in claims if c.elapsed_ms >= 120_000]
    _report(4, "brute-force automorphism counts match the closed forms", claims,
            extra_ok=not slow)


def test_criterion_05_normalizer(claims_by_criterion):
    claims = claims_by_criterion[5]
    seen = _covered(claims)
    for p in (3, 5):
        for n in range(2, 6):
            assert ("nf", n, f"F{p}") in seen
        for n in range(3, 6):
            assert ("f1", n, f"F{p}") in seen
    assert all(c.detail["nodes"] > 0 for c in claims)
    _report(5, "maximal torus equals its own normalizer", claims)


def test_criterion_06_toral_degree_tables(claims_by_criterion):
    claims = claims_by_criterion[6]
    nf_dims = {c.dim for c in claims if c.family == "nf"}
    f1_dims = {c.dim for c in claims if c.family == "f1"}
    assert nf_dims == set(range(3, 10))
    assert f1_dims == set(range(4, 9))
    _report(6, "toral specialization degree tables", claims)


def test_criterion_07_grading_enumeration(claims_by_criterion):
    claims = claims_by_criterion[7]
    seen = _covered(claims)
    for n in range(2, 9):
        assert ("nf", n, "Q") in seen
    for n in range(3, 8):
        assert ("f2", n, "Q") in seen
    for n in range(3, 7):
        assert ("f1", n, "Q") in seen
    total_ms = sum(c.elapsed_ms for c in claims)
    _report(7, "exhaustive grading enumeration matches the catalogs", claims,
            extra_ok=total_ms < 300_000, notes=f"total {total_ms}ms")


def test_criterion_08_direct_sum_lifts(claims_by_criterion):
    claims = claims_by_criterion[8]
    assert {c.dim for c in claims} == set(range(3, 8))
    _report(8, "chain-plus-line sums and lifted grading coverage", claims)


def test_criterion_09_universal_gradings(claims_by_criterion):
    claims = claims_by_criterion[9]
    seen = _covered(claims)
    for n in range(2, 11):
        assert ("nf", n, "Q") in seen
    for n in range(3, 11):
        assert ("f1", n, "Q") in seen and ("f2", n, "Q") in seen
    _report(9, "universal grading groups and degrees", claims)


def test_criterion_10_integer_normal_form_suites(claims_by_criterion):
    claims = claims_by_criterion[10]
    names = {c.name for c in claims}
    assert names == {"snf-random-suite", "coarsening-random-suite"}
    detail = {c.name: c.detail for c in claims}
    assert detail["snf-random-suite"].get("trials") == 1000
    assert detail["coarsening-random-suite"].get("coarsenings") == 200
    _report(10, "randomized Smith-form and coarsening suites", claims)


def test_report_rolls_claims_up_per_criterion(claims_by_criterion):
    claims = [c for n in sorted(claims_by_criterion) for c in claims_by_criterion[n]]
    report = summarize(claims, elapsed_ms=0, cpu_ms=0)
    criteria = report["criteria"]
    assert list(criteria) == [str(n) for n in sorted(claims_by_criterion)]
    for n, bucket in claims_by_criterion.items():
        # each claim's own elapsed_ms truncates its unrounded time; the
        # criterion sums the unrounded times and rounds once
        assert all(c.elapsed_ms == int(c.seconds * 1000) and c.seconds > 0 for c in bucket)
        assert criteria[str(n)] == {
            "claims": len(bucket),
            "failed": sum(not c.passed for c in bucket),
            "elapsed_ms": round(sum(c.seconds for c in bucket) * 1000),
        }
    assert sum(row["claims"] for row in criteria.values()) == report["total"] == 366
    assert sum(row["failed"] for row in criteria.values()) == report["failed"] == 0
    # the claims list is what the benchmark compares: the rollup leaves it as it is
    assert report["claims"] == [c.to_json() for c in claims]


def test_claim_identities_are_unique(claims_by_criterion):
    # a row repeated in the claim table would pass every criterion's coverage check
    ids = [(c.criterion, c.name, c.family, c.dim, c.field)
           for bucket in claims_by_criterion.values() for c in bucket]
    assert len(set(ids)) == len(ids) == 366


#: sha256 over every claim's JSON without elapsed_ms, in report order, one
#: line each; recorded again when criterion 4's walk began keeping one
#: automorphism per torus coset, which adds torus_size to its detail and
#: lowers its nodes and forced counters but no count, and again when
#: criterion 5's walk began visiting one torus coset representative, which
#: lowers only its nodes
CLAIMS_DIGEST = "c13d9159815dbfd31e3d92c7e09cce5c79f2187cbe8c2ace37b27f3de9a1e918"


def test_claims_are_byte_identical(claims_by_criterion):
    h = hashlib.sha256()
    for criterion in sorted(claims_by_criterion):
        for claim in claims_by_criterion[criterion]:
            doc = claim.to_json()
            del doc["elapsed_ms"]
            h.update(json.dumps(doc).encode() + b"\n")
    assert h.hexdigest() == CLAIMS_DIGEST


# -- spot checks straight against the library (no claim plumbing) ------------


def test_universal_degrees_equal_torus_weights():
    """The degrees of the universal grading are the weights of the torus
    diag(alpha, ..., alpha^n) of nf and diag(a, b, ab, ..., a^(n-2)b) of f1."""
    for family, lo in (("nf", 2), ("f1", 3)):
        for n in range(lo, 11):
            if family == "nf":
                weights = [(i,) for i in range(1, n + 1)]
            else:
                weights = [(1, 0), (0, 1)] + [(i - 2, 1) for i in range(3, n + 1)]
            _, grading = universal_grading(make_family(family, n))
            assert [d.coords for d in grading.degrees] == weights


def test_enumeration_extra_and_missing_stay_empty_over_f5():
    alg = make_family("nf", 6, Field(5))
    found = enumerate_h1_gradings(alg, "e1_homog", default_group_menu(6))
    report = compare(found, catalog("nf", 6, Field(5)))
    assert report.ok and not report.missing and not report.extra


def test_exactness_witness():
    """Exact arithmetic: a coefficient that floats would mangle."""
    third = QQ.scalar(Fraction(1, 3))
    acc = QQ.zero()
    for _ in range(3):
        acc = acc + third
    assert acc == QQ.one()
    big = QQ.scalar(10**30) * QQ.scalar(Fraction(1, 10**30))
    assert big == QQ.one()
    group = AbelianGroup(0, (3,))
    assert (10**18 * group.element((1,))).coords == ((10**18 % 3),)
