"""The mutant table: each mutant breaks one piece of the library, and a named
claim of the verification suite must fail under it.

Each test monkeypatches one mutant, runs only the criteria named for it and
asserts that the named claim is among the failures.  A mutant that no claim
kills stays in the table, marked xfail(strict=True), so that a run with
`-rxX` names it and a claim that starts to kill it turns the xfail into an
error until the mark is removed.
"""

import pytest

from graded_leibniz import gradings, torus, verification
from graded_leibniz.gradings import Grading, GradingReport
from graded_leibniz.verification import all_claim_thunks


def failed_claims(criteria):
    """(criterion, claim, family, dim, field) of each failing claim of `criteria`."""
    claims = [thunk() for thunk in all_claim_thunks() if thunk.criterion in criteria]
    return {(c.criterion, c.name, c.family, c.dim, c.field) for c in claims if not c.passed}


def appends_every_vector(orig):
    """A rank test that never cuts: every vector joins the echelon rows."""
    def mutant(rows, pivots, v, p=None, extend=False):
        rows.append(v)
        pivots.append(0)
        return v
    return mutant


def without_free_torsion(orig):
    """default_group_menu without its Z x Z_i groups."""
    return lambda n: [g for g in orig(n) if not (g.free_rank and g.torsion)]


def doubled_degrees(orig):
    """universal_grading with every degree doubled: still a grading, but one
    whose degrees span only 2U."""
    def mutant(algebra, *args):
        group, grading = orig(algebra, *args)
        return group, Grading(grading.algebra, group, [2 * d for d in grading.degrees])
    return mutant


#: module, attribute, replacement given the original, criteria to run, a claim
#: the mutant must fail
MUTANTS = [
    pytest.param(verification, "is_antisymmetric", lambda orig: lambda alg: True,
                 {1}, (1, "leibniz-identity", "nf", 4, "Q"), id="is_antisymmetric-always-true"),
    pytest.param(verification, "verify_grading", lambda orig: lambda grading: GradingReport(True, None),
                 {10}, (10, "coarsening-random-suite", None, None, None), id="verify_grading-always-ok"),
    # the closure's last row is the difference δ it adds; dropping it leaves
    # each closed set closed, so the search never leaves the empty set
    pytest.param(gradings, "_span", lambda orig: lambda rows: orig(rows[:-1]),
                 {7}, (7, "enumeration-vs-catalog", "f1", 5, "Q"), id="closure-skips-delta"),
    pytest.param(gradings, "_in_span", lambda orig: lambda hnf, v: False,
                 {7}, (7, "enumeration-vs-catalog", "nf", 6, "Q"), id="closure-membership-always-fails"),
    # criterion 7 holds equivalent to both sides: a constant True merges
    # neighbouring classes, and comparing degrees misses the f1 catalog
    # entries that grade by another group than their class's representative
    pytest.param(verification, "equivalent", lambda orig: lambda g1, g2: True,
                 {7}, (7, "enumeration-vs-catalog", "nf", 4, "Q"), id="equivalent-always-true"),
    pytest.param(verification, "equivalent", lambda orig: lambda g1, g2: g1.degrees == g2.degrees,
                 {7}, (7, "enumeration-vs-catalog", "f1", 5, "Q"), id="equivalent-compares-degrees"),
    # the menu sweep cross-checks criterion 7 only at n <= 4, where the menu
    # without Z x Z_i still finds every class; at f1 5 and f2 5 it finds 13
    # of 14, and tests/test_catalog.py::test_enumeration_matches_catalog and
    # test_menu_contents kill the same menu in catalog
    pytest.param(verification, "default_group_menu", without_free_torsion,
                 {7}, (7, "enumeration-vs-catalog", "f1", 5, "Q"), id="menu-without-Z-x-Zi",
                 marks=pytest.mark.xfail(strict=True, reason="no criterion 7 sweep reaches n = 5")),
    # the torus read off doubled degrees is the squares of the real one:
    # over F5, diag(t^2, t^4, t^6) takes 2 values where the family's torus
    # has 4; the row test keeps the same rows, so only that comparison fails
    pytest.param(torus, "universal_grading", doubled_degrees,
                 {5}, (5, "normalizer-equals-torus", "nf", 3, "F5"), id="torus-weights-doubled"),
    # a row test that keeps every row lets all 25 coset representatives
    # through, not only the identity
    pytest.param(torus, "_row_keeps_torus_diagonal", lambda orig: lambda row, weights: True,
                 {5}, (5, "normalizer-equals-torus", "nf", 3, "F5"), id="normalizer-keeps-every-row"),
    pytest.param(verification, "universal_grading", doubled_degrees,
                 {6}, (6, "toral-table-generic-order", "nf", 3, "Q"), id="toral-base-doubled"),
    pytest.param(verification, "lift_direct_sum_gradings", lambda orig: lambda grading: [],
                 {8}, (8, "direct-sum-lift", "f2", 4, "Q"), id="lift_direct_sum_gradings-empty"),
    # a generator depth too many: e_n, whose nf degree is n times that of
    # e_1, so the walk keeps the same automorphisms but multiplies their
    # number by (p-1)^2, not by the torus size p-1
    pytest.param(torus, "_torus_generators",
                 lambda orig: lambda alg, unforced: orig(alg, unforced) + [alg.dim],
                 {4}, (4, "aut-exhaustion", "nf", 3, "F3"), id="torus-generator-dependent-depth"),
    # every criterion 4 walk reports pruned 0, so no claim reaches a
    # dependent column; tests/test_torus.py::test_walk_counters_by_hand
    # kills it at lie_l 4 over F3 (2,268 automorphisms instead of 972)
    pytest.param(torus, "reduce_vector", appends_every_vector,
                 {4}, (4, "aut-exhaustion", "f1", 4, "F3"), id="rank-test-never-cuts",
                 marks=pytest.mark.xfail(strict=True, reason="no criterion 4 walk prunes")),
]


def test_named_criteria_pass_unmutated():
    assert failed_claims({1, 4, 5, 6, 7, 8, 10}) == set()


@pytest.mark.parametrize("module, name, replace, criteria, claim", MUTANTS)
def test_mutant_is_killed(monkeypatch, module, name, replace, criteria, claim):
    monkeypatch.setattr(module, name, replace(getattr(module, name)))
    assert claim in failed_claims(criteria)
