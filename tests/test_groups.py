"""Abelian group arithmetic, parsing, and homomorphism enumeration."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graded_leibniz import (
    AbelianGroup,
    GroupMismatch,
    InconsistentHomomorphism,
    all_homs,
    apply_hom,
    validate_hom,
)


def test_invariant_factor_validation():
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 6))  # 4 does not divide 6
    AbelianGroup(0, (2, 4, 8))  # chain ok
    AbelianGroup(2, (3, 3))


@pytest.mark.parametrize(
    "rank,torsion",
    [(True, ()), (1.0, ()), (0, (2.5,)), (1, (True, 2)), (0, (4.0,)), (True, (2.5,)),
     (1, 2), (1, None)],
)
def test_group_refuses_non_int_rank_and_factors(rank, torsion):
    # coercing with int() would build Z x Z2 from AbelianGroup(True, (2.5,));
    # a torsion that is not a sequence once raised TypeError
    with pytest.raises(ValueError):
        AbelianGroup(rank, torsion)


@pytest.mark.parametrize("coords", [(2.5, True), ("3", 1.9), (1, True), (2.0, 0)])
def test_element_refuses_non_int_coordinates(coords):
    # int() would read (2.5, True) as (2, 1) and ("3", 1.9) as (3, 1)
    with pytest.raises(ValueError):
        AbelianGroup(1, (4,)).element(coords)


def test_parse():
    assert AbelianGroup.parse("trivial") == AbelianGroup()
    assert AbelianGroup.parse("Z") == AbelianGroup(1)
    assert AbelianGroup.parse("Z6") == AbelianGroup(0, (6,))
    assert AbelianGroup.parse("Z_6") == AbelianGroup(0, (6,))
    assert AbelianGroup.parse("ZxZ3") == AbelianGroup(1, (3,))
    assert AbelianGroup.parse("ZxZxZ2") == AbelianGroup(2, (2,))
    with pytest.raises(ValueError):
        AbelianGroup.parse("Z3xZ")  # free factors must come first
    with pytest.raises(ValueError):
        AbelianGroup.parse("Q")


def test_describe():
    assert AbelianGroup().describe() == "trivial"
    assert AbelianGroup(1, (2,)).describe() == "Z x Z2"


def test_element_reduction_mod_torsion():
    g = AbelianGroup(1, (4,))
    e = g.element((5, 7))
    assert e.coords == (5, 3)
    assert (e + e).coords == (10, 2)
    assert (-e).coords == (-5, 1)
    assert (3 * g.element((0, 2))).coords == (0, 2)


def test_elements_enumeration():
    z = AbelianGroup(1)
    assert [e.coords[0] for e in z.elements(free_bound=2)] == [0, 1, -1, 2, -2]
    z6 = AbelianGroup(0, (6,))
    assert len(list(z6.elements())) == 6
    g = AbelianGroup(0, (2, 4))
    assert len({e.coords for e in g.elements()}) == 8


def test_group_mismatch_raises():
    with pytest.raises(GroupMismatch):
        AbelianGroup(1).zero() + AbelianGroup(0, (2,)).zero()


def test_json_round_trip():
    for g in (AbelianGroup(), AbelianGroup(2), AbelianGroup(1, (2, 6))):
        doc = g.to_json()
        assert AbelianGroup(doc["rank"], doc["torsion"]) == g


def test_hom_counts():
    z = AbelianGroup(1)
    z2 = AbelianGroup(0, (2,))
    z4 = AbelianGroup(0, (4,))
    zz = AbelianGroup(2)
    assert len(list(all_homs(z, z4, free_bound=0))) == 4
    # Z_2 -> Z_4 sends the generator to an element killed by 2
    assert len(list(all_homs(z2, z4, free_bound=0))) == 2
    assert len(list(all_homs(zz, z2, free_bound=0))) == 4
    # torsion cannot map onto a free generator
    assert all(
        img[0].coords[0] == 0 for img in all_homs(z2, AbelianGroup(1), free_bound=3)
    )


def test_validate_hom():
    z2 = AbelianGroup(0, (2,))
    z3 = AbelianGroup(0, (3,))
    with pytest.raises(InconsistentHomomorphism):
        validate_hom(z2, z3, [z3.element((1,))])
    validate_hom(z2, z3, [z3.zero()])
    with pytest.raises(InconsistentHomomorphism):
        validate_hom(z2, z3, [])


def test_apply_hom():
    zz = AbelianGroup(2)
    z6 = AbelianGroup(0, (6,))
    images = [z6.element((2,)), z6.element((3,))]
    assert apply_hom(images, (1, 1), z6).coords == (5,)
    assert apply_hom(images, (3, 0), z6).coords == (0,)


coords2 = st.tuples(st.integers(-20, 20), st.integers(-20, 20))


@given(coords2, coords2)
def test_addition_is_hom_compatible(a, b):
    """apply_hom is additive in the source element."""
    zz = AbelianGroup(2)
    target = AbelianGroup(1, (4,))
    images = [target.element((1, 2)), target.element((0, 3))]
    lhs = apply_hom(images, tuple(x + y for x, y in zip(a, b)), target)
    rhs = apply_hom(images, a, target) + apply_hom(images, b, target)
    assert lhs == rhs


@st.composite
def image_problem(draw):
    """A target group in invariant-factor form, generator images in it and source coordinates."""
    rank = draw(st.integers(0, 2))
    torsion = []
    for _ in range(draw(st.integers(0, 2))):
        torsion.append(draw(st.integers(2, 6)) if not torsion else torsion[-1] * draw(st.integers(1, 3)))
    target = AbelianGroup(rank, tuple(torsion))
    ngens = draw(st.integers(0, 4))
    point = st.lists(st.integers(-12, 12), min_size=target.ngens, max_size=target.ngens)
    images = [target.element(draw(point)) for _ in range(ngens)]
    coords = tuple(draw(st.lists(st.integers(-6, 6), min_size=ngens, max_size=ngens)))
    return target, images, coords


@given(image_problem())
def test_apply_hom_matches_group_arithmetic(problem):
    """apply_hom computes on raw ints; it must equal the sum of c * g in GroupElem arithmetic."""
    target, images, coords = problem
    expected = target.zero()
    for c, g in zip(coords, images):
        expected = expected + c * g
    assert apply_hom(images, coords, target) == expected


@given(image_problem(), st.integers(0, 3))
def test_apply_hom_rejects_foreign_image(problem, slot):
    target, images, coords = problem
    if not images:
        return
    slot %= len(images)
    foreign = AbelianGroup(target.free_rank + 1, target.torsion)
    images[slot] = foreign.element((1,) + images[slot].coords)
    coords = coords[:slot] + (coords[slot] or 1,) + coords[slot + 1 :]
    with pytest.raises(GroupMismatch):
        apply_hom(images, coords, target)


def test_all_homs_are_valid():
    src = AbelianGroup(1, (2,))
    dst = AbelianGroup(1, (4,))
    homs = list(all_homs(src, dst, free_bound=1))
    for images in homs:
        validate_hom(src, dst, images)
    # free generator: 3*4 target elements in bound; torsion generator: 2 choices
    assert len(homs) == 12 * 2
