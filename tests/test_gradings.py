"""Gradings: verification, universal construction, coarsening, equivalence."""

import hashlib
import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import graded_leibniz
from graded_leibniz import (
    AbelianGroup,
    Algebra,
    DifferentAlgebras,
    Grading,
    GroupMismatch,
    QQ,
    UnsupportedFamily,
    all_homs,
    catalog,
    coarsen,
    compare,
    default_group_menu,
    enumerate_h1_gradings,
    equivalent,
    factor_through_universal,
    homogeneous_partitions,
    make_family,
    trivial_grading,
    universal_grading,
    verify_grading,
)
from graded_leibniz import gradings as gradings_module
from graded_leibniz.catalog import FAMILY_HYPOTHESIS
from graded_leibniz.gradings import (
    _blocks,
    _coarsenings,
    universal_grading_with_generators,
)

Z = AbelianGroup(1)


def z_grading(alg, degs):
    return Grading(alg, Z, tuple(Z.element((d,)) for d in degs))


def test_trivial_grading_verifies():
    for family in ("nf", "f1", "lie_l"):
        g = trivial_grading(make_family(family, 5))
        assert verify_grading(g).ok
        assert g.group == AbelianGroup()


def test_verify_accepts_chain_grading():
    alg = make_family("nf", 4)
    assert verify_grading(z_grading(alg, [1, 2, 3, 4])).ok


def test_verify_rejects_wrong_degrees_with_witness():
    alg = make_family("nf", 3)
    rep = verify_grading(z_grading(alg, [1, 1, 3]))
    assert not rep.ok
    assert rep.first_violation == (1, 1, 2)  # [e1,e1]=e2 needs deg 1+1


def test_grading_requires_matching_group():
    alg = make_family("nf", 3)
    z2 = AbelianGroup(0, (2,))
    with pytest.raises(GroupMismatch):
        Grading(alg, Z, (Z.element((1,)), z2.element((1,)), Z.element((1,))))
    with pytest.raises(ValueError):
        Grading(alg, Z, (Z.element((1,)),))


def test_partition():
    alg = make_family("nf", 4)
    g = Grading(alg, AbelianGroup(0, (2,)), tuple(
        AbelianGroup(0, (2,)).element((j % 2,)) for j in range(1, 5)
    ))
    assert g.partition() == ((1, 3), (2, 4))


@pytest.mark.parametrize("family, n", [("nf", 6), ("f1", 6), ("f2", 6)])
def test_partition_on_coordinates_is_the_partition_on_degrees(family, n):
    # partition() keys on raw coordinates, which is exact because every
    # degree lies in the grading's group; torsion groups included
    for entry in catalog(family, n):
        g = entry.grading
        assert g.partition() == tuple(_blocks(g.degrees).values())


@pytest.mark.parametrize("family, n", [("nf", 6), ("f1", 6), ("f2", 6)])
def test_partition_is_computed_once(monkeypatch, family, n):
    calls = []

    def counting(degrees):
        calls.append(1)
        return _blocks(degrees)

    monkeypatch.setattr(gradings_module, "_blocks", counting)
    for entry in catalog(family, n):
        g = Grading(entry.grading.algebra, entry.grading.group, entry.grading.degrees)
        del calls[:]
        first = g.partition()
        assert g.partition() is first and len(calls) == 1
        assert first == tuple(_blocks(d.coords for d in g.degrees).values())


def test_universal_grading_nf():
    for n in range(2, 9):
        group, g = universal_grading(make_family("nf", n))
        assert group == Z
        assert [d.coords for d in g.degrees] == [(j,) for j in range(1, n + 1)]
        assert verify_grading(g).ok


def test_universal_grading_f1():
    group, g = universal_grading(make_family("f1", 5))
    assert group == AbelianGroup(2)
    assert [d.coords for d in g.degrees] == [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1)]


def test_universal_grading_f2():
    group, g = universal_grading(make_family("f2", 5))
    assert group == AbelianGroup(2)
    assert [d.coords for d in g.degrees] == [(1, 0), (2, 0), (3, 0), (4, 0), (0, 1)]


def test_universal_grading_abelian_partition():
    # no products: every block is free and independent
    alg = Algebra(3, QQ, {})
    group, g = universal_grading(alg, partition=[(1, 2), (3,)])
    assert group == AbelianGroup(2)
    assert g.degrees[0] == g.degrees[1] != g.degrees[2]


def test_universal_grading_with_torsion():
    # relations 2a - b = 0 and b = 0 leave a of order two
    alg = Algebra(2, QQ, {(1, 1): [(2, 1)], (2, 1): [(1, 1)]})
    result = universal_grading(alg)
    assert result is not None
    group, g = result
    assert group == AbelianGroup(0, (2,))
    assert [d.coords for d in g.degrees] == [(1,), (0,)]


def test_universal_grading_collapse_returns_none():
    # [e1,e2]=e2 and [e1,e2']=e2' style relations forcing deg(e1)=0=identity
    # with the discrete partition: [e1,e2]=e2 gives a + b - b = a = 0 and
    # [e2,e1]=e1 gives b + a - a = b = 0, so blocks {1},{2} share degree 0
    alg = Algebra(2, QQ, {(1, 2): [(2, 1)], (2, 1): [(1, 1)]})
    assert universal_grading(alg) is None


def set_partitions(items):
    """Every set partition of `items`, in a fixed order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]
        yield [[first]] + part


#: sha256 over every set partition of nf, f1, f2 and lie_l at n = 3..6 over
#: Q, in order, of "null" for a collapsing partition and else the JSON of
#: [grading, generator expressions]; 162 gradings, 76 with torsion, whose
#: generator expressions read columns of the Smith transform's inverse.
#: Recorded before int_matrix_inverse was built on the Hermite loop.
ALL_PARTITIONS_DIGEST = "c0392d759b25cec3c76f4d0d92459c8e093ddd4b5f8157a48297e569449305ae"


def test_universal_gradings_of_every_partition_are_byte_identical():
    h = hashlib.sha256()
    gradings = torsion = 0
    for family in ("nf", "f1", "f2", "lie_l"):
        for n in range(3, 7):
            alg = make_family(family, n, QQ)
            for part in set_partitions(list(range(1, n + 1))):
                result = universal_grading_with_generators(alg, part)
                if result is None:
                    h.update(b"null")
                    continue
                group, grading, gens = result
                gradings += 1
                torsion += bool(group.torsion)
                h.update(json.dumps([grading.to_json(), [list(g) for g in gens]]).encode())
    assert (gradings, torsion) == (162, 76)
    assert h.hexdigest() == ALL_PARTITIONS_DIGEST


def test_partition_validation():
    alg = make_family("nf", 3)
    with pytest.raises(ValueError):
        universal_grading(alg, partition=[(1,), (2,)])  # misses 3
    with pytest.raises(ValueError):
        universal_grading(alg, partition=[(1, 2), (2, 3)])  # duplicates 2


@pytest.mark.parametrize(
    "partition",
    [[[1], [2], [3], []], [[1.7], [2], [3]], [[True], [2], [3]], [[1, 1], [2], [3]],
     [[1, 2], ["3"]], [[0], [1, 2, 3]], [1, 2, 3]],
    ids=["empty-block", "float", "bool", "repeated", "string", "zero", "flat"],
)
def test_partition_refuses_what_is_not_a_partition(partition):
    # coercing with int() would read 1.7, True and "3" as indices, and a set
    # would merge the repeated one; an empty block has no least index
    with pytest.raises(ValueError):
        universal_grading(make_family("nf", 3), partition)


def test_coarsen_chain_to_parity():
    alg = make_family("nf", 4)
    _, base = universal_grading(alg)
    z2 = AbelianGroup(0, (2,))
    g = coarsen(base, z2, [z2.element((1,))])
    assert [d.coords[0] for d in g.degrees] == [1, 0, 1, 0]
    assert verify_grading(g).ok


def test_equivalence_is_partition_equality():
    alg = make_family("nf", 4)
    a = z_grading(alg, [1, 2, 3, 4])
    b = z_grading(alg, [-1, -2, -3, -4])
    c = z_grading(alg, [2, 4, 6, 8])
    assert equivalent(a, b) and equivalent(a, c)
    z2 = AbelianGroup(0, (2,))
    d = Grading(alg, z2, tuple(z2.element((j % 2,)) for j in range(1, 5)))
    assert not equivalent(a, d)


def test_equivalent_rejects_different_algebras():
    with pytest.raises(DifferentAlgebras):
        equivalent(
            trivial_grading(make_family("nf", 3)),
            trivial_grading(make_family("f1", 3)),
        )


def test_factor_through_universal_round_trip():
    alg = make_family("f1", 5)
    z3 = AbelianGroup(0, (3,))
    # degrees e1 -> 1, e2 -> 0, e_i -> i-2 mod 3
    g = Grading(alg, z3, tuple(z3.element((c,)) for c in (1, 0, 1, 2, 0)))
    assert verify_grading(g).ok
    group, base, images = factor_through_universal(g)
    rebuilt = coarsen(base, g.group, images)
    assert rebuilt == g


def test_factor_through_universal_random_coarsenings():
    alg = make_family("nf", 6)
    _, base = universal_grading(alg)
    for target, image_coords in [
        (AbelianGroup(1), (3,)),
        (AbelianGroup(0, (4,)), (2,)),
        (AbelianGroup(1, (2,)), (1, 1)),
    ]:
        g = coarsen(base, target, [target.element(image_coords)])
        _, _, images = factor_through_universal(g)
        assert coarsen(factor_through_universal(g)[1], target, images) == g


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=-5, max_value=5))
@settings(max_examples=40)
def test_chain_shifts_by_any_unit_slope(n, s):
    """Any nonzero multiple of the chain degrees stays a valid grading."""
    if s == 0:
        return
    alg = make_family("nf", n)
    g = z_grading(alg, [s * j for j in range(1, n + 1)])
    assert verify_grading(g).ok
    _, base = universal_grading(alg)
    assert equivalent(g, base)


# -- the coarsening sweep against a reference loop ------------------------------


def reference_coarsenings(base, menu, free_bound):
    """The sweep written the slow way: coarsen every homomorphism, key by
    Grading.partition(), keep the first per partition, sort by partition."""
    seen = {}
    for group in menu:
        for images in all_homs(base.group, group, free_bound):
            grading = coarsen(base, group, images)
            seen.setdefault(grading.partition(), grading)
    return [seen[key] for key in sorted(seen)]


def as_json(gradings):
    return [g.to_json() for g in gradings]


@pytest.mark.parametrize("family, sizes", [("nf", range(2, 10)), ("f1", range(3, 7)), ("f2", range(3, 7))])
def test_h1_enumeration_matches_reference_loop(family, sizes):
    for n in sizes:
        alg = make_family(family, n)
        menu = default_group_menu(n)
        found = enumerate_h1_gradings(alg, FAMILY_HYPOTHESIS[family], menu)
        assert as_json(found) == as_json(reference_coarsenings(universal_grading(alg)[1], menu, n))


#: the sweep's modular column arithmetic on torsion targets, products of
#: free and torsion factors, and the trivial group (which has no columns)
COLUMN_MENUS = [
    [AbelianGroup(1, (2, 4))],
    [AbelianGroup(2), AbelianGroup(0, (6,))],
    [AbelianGroup(0, (2, 2)), AbelianGroup()],
]


def torsion_base(alg):
    """The universal grading coarsened into Z x Z4 by images (-1, 1) and
    (2, 3): a base with torsion and negative coordinates."""
    _, base = universal_grading(alg)
    zz4 = AbelianGroup(1, (4,))
    images = [zz4.element(c) for c in ((-1, 1), (2, 3))][: base.group.ngens]
    return coarsen(base, zz4, images)


@pytest.mark.parametrize("menu", COLUMN_MENUS, ids=lambda menu: ",".join(g.describe() for g in menu))
@pytest.mark.parametrize("family, n", [("nf", 6), ("f1", 5), ("f2", 5)])
@pytest.mark.parametrize("make_base", [lambda alg: universal_grading(alg)[1], torsion_base],
                         ids=["universal", "torsion"])
def test_sweep_columns_match_reference_loop(make_base, family, n, menu):
    base = make_base(make_family(family, n))
    assert as_json(_coarsenings(base, menu)) == as_json(reference_coarsenings(base, menu, n))


#: invariant-factor chains of length at most 2 with every factor at most 6
SMALL_TORSION = [()] + [(a,) for a in range(2, 7)] + [
    (a, b) for a in range(2, 7) for b in range(a, 7) if b % a == 0]

#: menus whose homomorphisms number more than this are redrawn, so the
#: reference loop keeps each example to a few hundredths of a second
ORACLE_HOMS = 3000


@given(family=st.sampled_from(["nf", "f1", "f2"]), n=st.integers(min_value=2, max_value=5),
       torsion=st.booleans(),
       menu=st.lists(st.builds(AbelianGroup, st.integers(min_value=0, max_value=2),
                               st.sampled_from(SMALL_TORSION)), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_sweep_matches_reference_loop_on_random_menus(family, n, torsion, menu):
    """Several zipped coordinate keys share a partition whenever a target has
    two or more coordinates; the sweep must keep the same first
    homomorphism per partition as the reference loop, in any menu order."""
    alg = make_family(family, n)
    base = torsion_base(alg) if torsion else universal_grading(alg)[1]
    homs = sum(1 for group in menu
               for _ in itertools.islice(all_homs(base.group, group, n), ORACLE_HOMS + 1))
    assume(homs <= ORACLE_HOMS)
    assert as_json(_coarsenings(base, menu)) == as_json(reference_coarsenings(base, menu, n))


# -- every homogeneous-basis partition by lattice closure -------------------------


def admissible_partitions(alg):
    """The oracle: every set partition that some grading realizes exactly."""
    return sorted(
        tuple(sorted(tuple(sorted(block)) for block in part))
        for part in set_partitions(list(range(1, alg.dim + 1)))
        if universal_grading(alg, part) is not None
    )


@pytest.mark.parametrize("family", ["nf", "f1", "f2", "lie_l"])
@pytest.mark.parametrize("n", range(3, 8))
def test_closure_finds_every_admissible_partition(family, n):
    alg = make_family(family, n)
    partitions, lattices = homogeneous_partitions(alg)
    assert partitions == admissible_partitions(alg)
    assert lattices >= len(partitions) - 1


def test_closure_spans_carry_the_torsion_of_the_universal_group():
    # 2 deg e_1 = deg e_2 and 2 deg e_2 = deg e_1, so U = Z x Z3; without the
    # torsion row 3·e_k a span in Z^2 would miss that 3 (deg e_2 - deg e_1) = 0
    alg = Algebra(3, QQ, {(1, 1): [(2, 1)], (2, 2): [(1, 1)]})
    assert universal_grading(alg)[0] == AbelianGroup(1, (3,))
    partitions, _ = homogeneous_partitions(alg)
    assert partitions == admissible_partitions(alg)
    assert len(partitions) == 5


@pytest.mark.parametrize("family, sizes", [("nf", range(2, 9)), ("f1", range(3, 7)), ("f2", range(3, 8))])
def test_closure_classes_are_the_catalog(family, sizes):
    for n in sizes:
        alg = make_family(family, n)
        partitions, _ = homogeneous_partitions(alg)
        assert len(partitions) == (n if family == "nf" else n * (n + 1) // 2 - 1)
        found = [universal_grading(alg, part)[1] for part in partitions]
        assert compare(found, catalog(family, n)).ok


def test_closure_refuses_an_algebra_without_a_discrete_universal_grading():
    with pytest.raises(UnsupportedFamily):
        homogeneous_partitions(make_family("lie_q", 4))


def test_closure_does_not_depend_on_the_hash_seed():
    script = ("from graded_leibniz import make_family, homogeneous_partitions\n"
              "for f, n in (('f1', 6), ('f2', 6), ('lie_l', 5)):\n"
              "    print(homogeneous_partitions(make_family(f, n)))\n")
    # the child imports this same package, installed or not
    root = os.path.dirname(os.path.dirname(graded_leibniz.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    outputs = {
        subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                       env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)).stdout
        for seed in ("0", "1")
    }
    assert len(outputs) == 1 and outputs.pop().count("\n") == 3
