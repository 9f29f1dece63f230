"""Expected grading catalogs, exhaustive enumeration, and comparison.

The classification lists for the three non-Lie families are stored as
parametrized instantiation rules.  Entries are grouped by `item`, the
position in the family's classification list; parameter ranges are
chosen so that every equivalence class of the classification appears
at least once:

  nf   (1) trivial, (2) Z with degrees 1..n, (3) Z_i residues, 1 < i < n.
  f1   (1) trivial, (2) Z_2 isolating the first generator,
       (3) Z chain shifts k in [3-n, 2], (4) Z_i chain shifts
       k in [2, i+1], (5) Z x Z_i with the first generator isolated.
  f2   (1) trivial, (2) Z with degrees 1..n, (3) Z with the tail vector
       merged at k in [1, n-1], (4) Z_i residues with the tail at
       k in [0, i-1], (5) tail isolated in a fresh free factor,
       i in [1, n-1]; i = 1 contributes the two-block split with the
       whole chain in one degree, and the factor Z x Z_1 degenerates
       to Z.

Every grading with all standard basis vectors homogeneous is a
coarsening of the universal grading of the discrete partition, so
enumeration sweeps the homomorphisms from the universal group into each
menu group (`gradings._coarsenings`).  The sweep computes each image
coordinate over all basis vectors at once, as an integer combination of
the universal degrees' coordinate columns (reduced mod the invariant
factor on a torsion coordinate) and labels it by first occurrence, once
per modulus and images' coordinates in the call; it keys the partition on
those labels, building a grading only for the first homomorphism per
partition.  The menu and the bound on free images make
the sweep exhaustive only for the groups it tries.

Criterion 7 of the verification suite therefore takes its classes from
`gradings.homogeneous_partitions`, a closure over the lattices spanned by
differences of universal degrees that is exact for every abelian group at
once, with one `universal_grading` representative per class, and runs the
menu sweep only at n <= 4, where it must find the same partitions.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebras import Algebra, abelian_algebra, direct_sum, make_family
from .errors import DifferentAlgebras, DimensionTooSmall, UnsupportedFamily
from .fields import QQ, Field
from .gradings import Grading, _coarsenings, trivial_grading, universal_grading
from .groups import AbelianGroup

#: generator-homogeneity hypotheses, each implying the ones before it
HYPOTHESES = ("e1_homog", "e1_e2_homog")

#: the weakest hypothesis under which each family's gradings are all
#: coarsenings of its universal grading
FAMILY_HYPOTHESIS = {"nf": "e1_homog", "f1": "e1_e2_homog", "f2": "e1_homog"}

class CatalogEntry(NamedTuple):
    """One instantiated grading from a classification list."""

    family: str
    item: int
    label: str
    grading: Grading
    params: tuple[tuple[str, int], ...] = ()


def default_group_menu(n: int) -> list[AbelianGroup]:
    """Menu {trivial, Z, Z_i (i <= n), Z x Z_i (i <= n-1)}."""
    menu = [AbelianGroup(0), AbelianGroup(1)]
    menu += [AbelianGroup(0, (i,)) for i in range(2, n + 1)]
    menu += [AbelianGroup(1, (i,)) for i in range(2, n)]
    return menu


def _entry(family, item, label, alg, group, degrees, params=()):
    grading = Grading(alg, group, tuple(group.element(c) for c in degrees))
    return CatalogEntry(family, item, label, grading, tuple(params))


def _nf_catalog(alg: Algebra) -> list[CatalogEntry]:
    n = alg.dim
    z = AbelianGroup(1)
    out = [
        CatalogEntry("nf", 1, "trivial", trivial_grading(alg)),
        _entry("nf", 2, "Z-chain", alg, z, [(j,) for j in range(1, n + 1)]),
    ]
    for i in range(2, n):
        zi = AbelianGroup(0, (i,))
        out.append(
            _entry("nf", 3, f"Z{i}-residues", alg, zi,
                   [(j % i,) for j in range(1, n + 1)], params=[("i", i)])
        )
    return out


def _f1_catalog(alg: Algebra) -> list[CatalogEntry]:
    n = alg.dim
    z = AbelianGroup(1)
    z2 = AbelianGroup(0, (2,))
    out = [
        CatalogEntry("f1", 1, "trivial", trivial_grading(alg)),
        _entry("f1", 2, "Z2-generator-split", alg, z2,
               [(0,)] + [(1,)] * (n - 1)),
    ]
    for k in range(3 - n, 3):
        out.append(
            _entry("f1", 3, f"Z-chain-shift(k={k})", alg, z,
                   [(1,)] + [(k + j - 2,) for j in range(2, n + 1)],
                   params=[("k", k)])
        )
    for i in range(2, n):
        zi = AbelianGroup(0, (i,))
        for k in range(2, i + 2):
            out.append(
                _entry("f1", 4, f"Z{i}-chain-shift(k={k})", alg, zi,
                       [(1,)] + [((j + 1 - k) % i,) for j in range(2, n + 1)],
                       params=[("i", i), ("k", k)])
            )
    for i in range(2, n):
        zxzi = AbelianGroup(1, (i,))
        out.append(
            _entry("f1", 5, f"ZxZ{i}-generator-split", alg, zxzi,
                   [(0, 1)] + [(1, (j - 2) % i) for j in range(2, n + 1)],
                   params=[("i", i)])
        )
    return out


def _f2_catalog(alg: Algebra) -> list[CatalogEntry]:
    n = alg.dim
    z = AbelianGroup(1)
    out = [
        CatalogEntry("f2", 1, "trivial", trivial_grading(alg)),
        _entry("f2", 2, "Z-chain", alg, z, [(j,) for j in range(1, n + 1)]),
    ]
    for k in range(1, n):
        out.append(
            _entry("f2", 3, f"Z-tail-merged(k={k})", alg, z,
                   [(j,) for j in range(1, n)] + [(k,)], params=[("k", k)])
        )
    for i in range(2, n):
        zi = AbelianGroup(0, (i,))
        for k in range(i):
            out.append(
                _entry("f2", 4, f"Z{i}-tail-merged(k={k})", alg, zi,
                       [(j % i,) for j in range(1, n)] + [(k,)],
                       params=[("i", i), ("k", k)])
            )
    out.append(
        _entry("f2", 5, "Z-tail-isolated", alg, z,
               [(0,)] * (n - 1) + [(1,)], params=[("i", 1)])
    )
    for i in range(2, n):
        zxzi = AbelianGroup(1, (i,))
        out.append(
            _entry("f2", 5, f"ZxZ{i}-tail-isolated", alg, zxzi,
                   [(0, j % i) for j in range(1, n)] + [(1, 0)],
                   params=[("i", i)])
        )
    return out


_CATALOG_BUILDERS = {"nf": (_nf_catalog, 2), "f1": (_f1_catalog, 3), "f2": (_f2_catalog, 3)}


def catalog(family: str, n: int, field: Field = QQ) -> list[CatalogEntry]:
    """Instantiate the expected grading classes for a built-in family."""
    if family not in _CATALOG_BUILDERS:
        raise UnsupportedFamily(f"no grading catalog for family {family!r}")
    builder, min_dim = _CATALOG_BUILDERS[family]
    if n < min_dim:
        raise DimensionTooSmall(f"catalog for {family!r} needs dimension >= {min_dim}")
    return builder(make_family(family, n, field))


def enumerate_h1_gradings(alg: Algebra, hypothesis: str, group_menu) -> list[Grading]:
    """All gradings with homogeneous standard basis by the groups of
    `group_menu`, up to equivalence: the menu sweep.

    Under the stated generator-homogeneity hypothesis, every grading of
    these families makes the whole standard basis homogeneous (each
    e_j lies in an iterated bracket of the generators), so enumerating
    homomorphisms out of the universal group is exhaustive for the menu's
    groups, with free images bounded by the dimension.  For every abelian
    group at once, use `gradings.homogeneous_partitions`; criterion 7
    does, and cross-checks it against this sweep at n <= 4.
    """
    if hypothesis not in HYPOTHESES:
        raise ValueError(f"hypothesis must be one of {HYPOTHESES}")
    needed = FAMILY_HYPOTHESIS.get(alg.label)
    if needed is None or HYPOTHESES.index(hypothesis) < HYPOTHESES.index(needed):
        raise UnsupportedFamily(
            f"hypothesis {hypothesis!r} does not determine the gradings of {alg.label!r}"
        )
    pair = universal_grading(alg)
    if pair is None:
        raise UnsupportedFamily("the discrete partition admits no universal grading here")
    return _coarsenings(pair[1], group_menu)


class EnumerationReport(NamedTuple):
    expected: tuple[CatalogEntry, ...]
    missing: tuple[CatalogEntry, ...]
    extra: tuple[Grading, ...]

    @property
    def ok(self) -> bool:
        return not self.missing and not self.extra


def compare(found, expected) -> EnumerationReport:
    """Match enumerated gradings against catalog instances up to equivalence."""
    found = tuple(found)
    expected = tuple(expected)
    exp_gradings = [e.grading if isinstance(e, CatalogEntry) else e for e in expected]
    if found and expected:
        a, b = found[0].algebra, exp_gradings[0].algebra
        # labels may differ (e.g. a direct sum rebuilt against a named
        # family); the multiplication tables must not
        if not a.same_structure(b):
            raise DifferentAlgebras("cannot compare gradings of different algebras")
    found_keys = [g.partition() for g in found]
    expected_keys = [g.partition() for g in exp_gradings]
    found_set, expected_set = set(found_keys), set(expected_keys)
    missing = tuple(e for e, key in zip(expected, expected_keys) if key not in found_set)
    extra = tuple(
        g for key, g in sorted(zip(found_keys, found), key=lambda pair: pair[0])
        if key not in expected_set
    )
    return EnumerationReport(expected, missing, extra)


def lift_direct_sum_gradings(grading: Grading) -> list[Grading]:
    """Gradings of A + B induced by a grading of A, B the abelian line over A's field.

    Rule (1) keeps the group and adds the new vector to an existing
    component (one lift per support degree, in order of least basis
    index) or, when the group has an unused degree, to a fresh singleton
    component (one canonical lift: the first unused element in
    enumeration order; any other choice is equivalent to it).  Rule (2)
    extends the group by a free factor that isolates the new vector in
    degree (1, 0, ..., 0).
    """
    alg = grading.algebra
    big = direct_sum(alg, abelian_algebra(1, alg.field))
    group = grading.group
    support = dict.fromkeys(grading.degrees)  # in order of least basis index
    out = [Grading(big, group, grading.degrees + (h,)) for h in support]
    fresh = next(
        (g for g in group.elements(free_bound=alg.dim + 1) if g not in support), None
    )
    if fresh is not None:
        out.append(Grading(big, group, grading.degrees + (fresh,)))
    extended = AbelianGroup(group.free_rank + 1, group.torsion)
    lifted = tuple(extended.element((0,) + d.coords) for d in grading.degrees)
    new_degree = extended.element((1,) + (0,) * group.ngens)
    out.append(Grading(big, extended, lifted + (new_degree,)))
    return out
