"""Grading catalogs, exhaustive enumeration, comparison, direct-sum lifts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graded_leibniz import (
    AbelianGroup,
    DifferentAlgebras,
    DimensionTooSmall,
    Field,
    Grading,
    UnsupportedFamily,
    abelian_algebra,
    catalog,
    compare,
    default_group_menu,
    direct_sum,
    enumerate_h1_gradings,
    lift_direct_sum_gradings,
    make_family,
    trivial_grading,
    universal_grading,
    verify_grading,
)

Z = AbelianGroup(1)


def coords(entry):
    return [d.coords for d in entry.grading.degrees]


def by_label(entries):
    return {e.label: e for e in entries}


def test_menu_contents():
    menu = default_group_menu(5)
    assert menu == [
        AbelianGroup(),
        AbelianGroup(1),
        AbelianGroup(0, (2,)),
        AbelianGroup(0, (3,)),
        AbelianGroup(0, (4,)),
        AbelianGroup(0, (5,)),
        AbelianGroup(1, (2,)),
        AbelianGroup(1, (3,)),
        AbelianGroup(1, (4,)),
    ]


def test_nf_catalog_four_classes_at_dim_four():
    entries = catalog("nf", 4)
    assert [e.item for e in entries] == [1, 2, 3, 3]
    named = by_label(entries)
    assert coords(named["Z-chain"]) == [(1,), (2,), (3,), (4,)]
    assert coords(named["Z2-residues"]) == [(1,), (0,), (1,), (0,)]
    assert coords(named["Z3-residues"]) == [(1,), (2,), (0,), (1,)]
    assert named["trivial"].grading.group == AbelianGroup()


def test_f1_catalog_item2_generator_split():
    named = by_label(catalog("f1", 4))
    e = named["Z2-generator-split"]
    assert e.item == 2
    assert coords(e) == [(0,), (1,), (1,), (1,)]


def test_f1_catalog_shift_families():
    named = by_label(catalog("f1", 4))
    # free shift k = 2: degrees 1, k, k+1, k+2
    assert coords(named["Z-chain-shift(k=2)"]) == [(1,), (2,), (3,), (4,)]
    assert coords(named["Z-chain-shift(k=-1)"]) == [(1,), (-1,), (0,), (1,)]
    # modular shift: i = 3, k = 2 puts e_2 in degree 1 alongside e_1
    assert coords(named["Z3-chain-shift(k=2)"]) == [(1,), (1,), (2,), (0,)]
    assert coords(named["ZxZ3-generator-split"]) == [(0, 1), (1, 0), (1, 1), (1, 2)]


def test_f2_catalog_tail_classes():
    named = by_label(catalog("f2", 4))
    assert coords(named["Z-chain"]) == [(1,), (2,), (3,), (4,)]
    assert coords(named["Z-tail-merged(k=2)"]) == [(1,), (2,), (3,), (2,)]
    assert coords(named["Z2-tail-merged(k=1)"]) == [(1,), (0,), (1,), (1,)]
    assert coords(named["Z-tail-isolated"]) == [(0,), (0,), (0,), (1,)]
    assert coords(named["ZxZ3-tail-isolated"]) == [(0, 1), (0, 2), (0, 0), (1, 0)]


def test_catalog_guards():
    with pytest.raises(UnsupportedFamily):
        catalog("lie_l", 4)
    with pytest.raises(DimensionTooSmall):
        catalog("f1", 2)
    with pytest.raises(DimensionTooSmall):
        catalog("nf", 1)


@pytest.mark.parametrize("family,lo", [("nf", 2), ("f1", 3), ("f2", 3)])
def test_catalog_instances_are_valid_gradings(family, lo):
    for n in range(lo, 9):
        for field in (None, Field(5)):
            entries = catalog(family, n) if field is None else catalog(family, n, field)
            for e in entries:
                rep = verify_grading(e.grading)
                assert rep.ok, (family, n, e.label, rep.first_violation)


def test_enumeration_hypothesis_guards():
    alg = make_family("f1", 4)
    with pytest.raises(ValueError):
        enumerate_h1_gradings(alg, "nope", default_group_menu(4))
    with pytest.raises(UnsupportedFamily):
        enumerate_h1_gradings(alg, "e1_homog", default_group_menu(4))
    with pytest.raises(UnsupportedFamily):
        enumerate_h1_gradings(make_family("lie_l", 4), "e1_e2_homog", default_group_menu(4))


def test_enumerated_gradings_verify_and_dedupe():
    alg = make_family("nf", 5)
    found = enumerate_h1_gradings(alg, "e1_homog", default_group_menu(5))
    partitions = [g.partition() for g in found]
    assert len(partitions) == len(set(partitions))
    for g in found:
        assert verify_grading(g).ok


@pytest.mark.parametrize(
    "family,hyp,lo,hi",
    [("nf", "e1_homog", 2, 6), ("f2", "e1_homog", 3, 6), ("f1", "e1_e2_homog", 3, 5)],
)
def test_enumeration_matches_catalog(family, hyp, lo, hi):
    for n in range(lo, hi + 1):
        alg = make_family(family, n)
        found = enumerate_h1_gradings(alg, hyp, default_group_menu(n))
        report = compare(found, catalog(family, n))
        assert report.ok, (family, n, report.missing, report.extra)


def test_compare_reports_missing():
    alg = make_family("nf", 4)
    expected = catalog("nf", 4)
    found = enumerate_h1_gradings(alg, "e1_homog", default_group_menu(4))
    dropped = [g for g in found if g.partition() != ((1, 3), (2, 4))]
    report = compare(dropped, expected)
    assert not report.ok
    assert [e.label for e in report.missing] == ["Z2-residues"]
    assert not report.extra


def test_compare_reports_extra():
    alg = make_family("nf", 4)
    z2 = AbelianGroup(0, (2,))
    stray = Grading(alg, z2, tuple(z2.element((j % 2,)) for j in range(1, 5)))
    report = compare([stray], [e for e in catalog("nf", 4) if e.item == 1])
    assert not report.ok
    assert report.missing and len(report.extra) == 1


def test_compare_accepts_plain_gradings_as_expected():
    alg = make_family("nf", 3)
    found = enumerate_h1_gradings(alg, "e1_homog", [AbelianGroup(1)])
    _, universal = universal_grading(alg)
    report = compare(found, [universal])
    assert not report.missing


def test_compare_rejects_different_algebras():
    with pytest.raises(DifferentAlgebras):
        compare(
            [trivial_grading(make_family("nf", 4))],
            [trivial_grading(make_family("f1", 4))],
        )


def test_compare_collapsed_classes():
    alg = make_family("nf", 4)
    _, universal = universal_grading(alg)
    doubled = catalog("nf", 4) + [universal]
    found = enumerate_h1_gradings(alg, "e1_homog", default_group_menu(4))
    report = compare(found, doubled)
    assert report.ok


# -- direct-sum lifts ---------------------------------------------------------


def test_lift_z_chain_rule_one():
    base = make_family("nf", 3)
    _, chain = universal_grading(base)
    lifts = lift_direct_sum_gradings(chain)
    degs = {tuple(d.coords[0] for d in g.degrees) for g in lifts if g.group == Z}
    # the new vector can join each existing degree or take a fresh one
    assert (1, 2, 3, 1) in degs
    assert (1, 2, 3, 2) in degs
    assert (1, 2, 3, 3) in degs
    assert (1, 2, 3, 0) in degs  # first unused element in spiral order


def test_lift_rule_two_extends_group():
    base = make_family("nf", 3)
    g = trivial_grading(base)
    lifts = lift_direct_sum_gradings(g)
    # trivial group has no unused element, so: 1 join + 1 extension
    assert len(lifts) == 2
    joined, extended = lifts
    assert joined.group == AbelianGroup()
    assert joined.partition() == ((1, 2, 3, 4),)
    assert extended.group == Z
    assert [d.coords for d in extended.degrees] == [(0,), (0,), (0,), (1,)]


def test_lift_torsion_grading():
    base = make_family("nf", 4)
    z2 = AbelianGroup(0, (2,))
    g = Grading(base, z2, tuple(z2.element((j % 2,)) for j in range(1, 5)))
    lifts = lift_direct_sum_gradings(g)
    # both residues are occupied: two joins plus the group extension
    assert len(lifts) == 3
    assert lifts[2].group == AbelianGroup(1, (2,))
    assert lifts[2].degrees[-1].coords == (1, 0)


def test_lifted_gradings_are_valid():
    for entry in catalog("nf", 4):
        for lift in lift_direct_sum_gradings(entry.grading):
            assert lift.algebra.same_structure(make_family("f2", 5))
            assert verify_grading(lift).ok


@pytest.mark.parametrize("n", range(3, 7))
def test_lifts_cover_f2_catalog(n):
    lifted = []
    for entry in catalog("nf", n - 1):
        lifted.extend(lift_direct_sum_gradings(entry.grading))
    report = compare(lifted, catalog("f2", n))
    assert not report.missing, [e.label for e in report.missing]


@given(st.integers(min_value=3, max_value=6), st.integers(min_value=0, max_value=40))
@settings(max_examples=40)
def test_random_catalog_entry_lifts_verify(n, pick):
    entries = catalog("nf", n - 1)
    entry = entries[pick % len(entries)]
    for lift in lift_direct_sum_gradings(entry.grading):
        assert verify_grading(lift).ok
        assert lift.algebra.same_structure(direct_sum(make_family("nf", n - 1), abelian_algebra(1)))
