"""Abelian group gradings of structure-constant algebras.

A grading assigns a degree (group element) to each basis vector such
that every nonzero product lands in the component of the summed degree:
every standard basis vector is homogeneous, as in the paper's
classification, so a grading is a degree map on basis indices.

The central construction is the universal grading of a set partition of
the basis: the finest abelian group receiving a degree map with the
prescribed blocks.  It is computed by presenting the group with one
generator per block and one relation per nonzero structure constant,
then reducing with the Smith normal form.  Every homogeneous-basis
grading factors through the universal grading of its partition, which
turns exhaustive grading searches into searches over homomorphisms, or,
for every group at once, over the lattices spanned by differences of the
universal degrees (`homogeneous_partitions`).

A grading's components are listed in order of their least basis index,
both by `Grading.partition` and in its repr.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebras import Algebra
from .errors import DifferentAlgebras, GroupMismatch, UnsupportedFamily
from .groups import AbelianGroup, GroupElem, all_homs, apply_hom, validate_hom
from .snf import _hnf, diagonal_of, int_mat_mul, int_matrix_inverse, row_hnf, smith_normal_form


def _blocks(degrees) -> dict:
    """Degree -> tuple of the 1-based indices carrying it, in order of least index."""
    by_degree: dict = {}
    for i, d in enumerate(degrees, start=1):
        by_degree.setdefault(d, []).append(i)
    return {d: tuple(ids) for d, ids in by_degree.items()}


class Grading:
    """A homogeneous-basis grading: one degree per basis index."""

    __slots__ = ("algebra", "group", "degrees", "_partition")

    def __init__(self, algebra: Algebra, group: AbelianGroup, degrees):
        degrees = tuple(degrees)
        if len(degrees) != algebra.dim:
            raise ValueError("need one degree per basis vector")
        for d in degrees:
            if not isinstance(d, GroupElem) or d.group != group:
                raise GroupMismatch("degree lies in the wrong group")
        self.algebra = algebra
        self.group = group
        self.degrees = degrees
        self._partition = None

    def degree(self, i: int) -> GroupElem:
        """Degree of e_i (1-based)."""
        return self.degrees[i - 1]

    def partition(self) -> tuple[tuple[int, ...], ...]:
        """Blocks of equal-degree basis indices, ordered by least index.

        Keyed on raw coordinates: every degree lies in self.group, so equal
        coordinates mean equal degrees, and tuples of ints hash faster.
        Computed on the first call and kept: nothing reassigns degrees."""
        if self._partition is None:
            self._partition = tuple(_blocks(d.coords for d in self.degrees).values())
        return self._partition

    def __eq__(self, other):
        return (
            isinstance(other, Grading)
            and self.algebra.same_structure(other.algebra)
            and self.group == other.group
            and self.degrees == other.degrees
        )

    def __repr__(self):
        chunks = [
            "<" + ",".join(f"e{i}" for i in ids) + f">_{deg!r}"
            for deg, ids in _blocks(self.degrees).items()
        ]
        return f"Grading({self.group.describe()}: " + " + ".join(chunks) + ")"

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "degrees": [list(d.coords) for d in self.degrees],
        }


def trivial_grading(algebra: Algebra) -> Grading:
    g = AbelianGroup()
    return Grading(algebra, g, (g.zero(),) * algebra.dim)


class GradingReport(NamedTuple):
    """first_violation is the first basis triple (i, j, k), in order of
    (i, j), with e_k in [e_i, e_j] but deg e_k != deg e_i + deg e_j."""

    ok: bool
    first_violation: tuple[int, int, int] | None = None


def verify_grading(grading: Grading) -> GradingReport:
    """Check closure: each product lands in the summed-degree component."""
    alg = grading.algebra
    for (i, j) in sorted(alg.sc):
        s = grading.degree(i) + grading.degree(j)
        for k, _ in alg.sc[(i, j)]:
            if grading.degree(k) != s:
                return GradingReport(False, (i, j, k))
    return GradingReport(True, None)


# -- universal gradings ---------------------------------------------------


def _normalize_partition(algebra: Algebra, partition) -> list[tuple[int, ...]]:
    """The blocks, each sorted, ordered by least index; ValueError unless they
    are nonempty, hold ints (no bool or float) and cover each index once."""
    if partition is None:
        return [(i,) for i in range(1, algebra.dim + 1)]
    try:
        blocks = [tuple(sorted(b)) if all(type(i) is int for i in b) else None for b in partition]
    except TypeError:  # a partition or block that is not a collection
        blocks = [None]
    if not all(blocks):
        raise ValueError("partition blocks must be nonempty collections of int indices")
    if sorted(i for b in blocks for i in b) != list(range(1, algebra.dim + 1)):
        raise ValueError("partition must cover each basis index exactly once")
    return sorted(blocks, key=lambda b: b[0])


def universal_grading(algebra: Algebra, partition=None):
    """Finest grading whose equal-degree blocks refine to `partition`.

    Returns (group, grading) with the group in invariant-factor form
    and the free coordinates canonicalized (Hermite form), or None when
    the structure constants force two distinct blocks to share a degree
    (no grading with exactly this partition exists).  The default
    partition is discrete: every basis vector in its own block.
    """
    result = universal_grading_with_generators(algebra, partition)
    if result is None:
        return None
    group, grading, _ = result
    return group, grading


def universal_grading_with_generators(algebra: Algebra, partition=None):
    """As universal_grading, also returning generator expressions.

    The third component lists, for each generator of the resulting
    group (free generators first), integer coefficients over the
    partition blocks expressing that generator as a combination of the
    block degrees.  Used to factor arbitrary gradings through the
    universal one.
    """
    blocks = _normalize_partition(algebra, partition)
    nblocks = len(blocks)
    block_of = {}
    for b, ids in enumerate(blocks):
        for i in ids:
            block_of[i] = b

    rels = set()
    for (i, j), terms in algebra.sc.items():
        for k, _ in terms:
            vec = [0] * nblocks
            vec[block_of[i]] += 1
            vec[block_of[j]] += 1
            vec[block_of[k]] -= 1
            if any(vec):
                rels.add(tuple(vec))
    rel_list = sorted(rels)

    # with no relations the matrix has no columns and U is the identity
    u, d, _ = smith_normal_form([[rel[b] for rel in rel_list] for b in range(nblocks)])
    diag = diagonal_of(d)
    diag += [0] * (nblocks - len(diag))

    free_rows = [i for i in range(nblocks) if diag[i] == 0]
    tors_rows = [i for i in range(nblocks) if diag[i] >= 2]
    group = AbelianGroup(len(free_rows), tuple(diag[i] for i in tors_rows))

    # Free coordinates from the Smith transform are only unique up to a
    # unimodular change; Hermite-reduce them so equal quotients get
    # literally equal degree tuples.
    h, w = row_hnf([u[i] for i in free_rows])
    degrees_by_block = [
        group.element(tuple(row[b] for row in h) + tuple(u[i][b] for i in tors_rows))
        for b in range(nblocks)
    ]
    if len(set(degrees_by_block)) < nblocks:
        return None

    # each generator over the blocks: the free ones are the columns of
    # U^-1's free columns times W^-1, torsion generator i is column i of U^-1
    uinv_cols = list(zip(*int_matrix_inverse(u)))
    winv_t = list(zip(*int_matrix_inverse(w)))
    gen_exprs = [tuple(e) for e in int_mat_mul(winv_t, [uinv_cols[i] for i in free_rows])]
    gen_exprs += [uinv_cols[i] for i in tors_rows]

    degrees = tuple(degrees_by_block[block_of[i]] for i in range(1, algebra.dim + 1))
    return group, Grading(algebra, group, degrees), gen_exprs


def coarsen(grading: Grading, target: AbelianGroup, images) -> Grading:
    """Push degrees through the homomorphism sending the i-th generator
    of the grading group to images[i]."""
    images = list(images)
    validate_hom(grading.group, target, images)
    new = tuple(apply_hom(images, d.coords, target) for d in grading.degrees)
    return Grading(grading.algebra, target, new)


def _coarsenings(base: Grading, group_menu) -> list[Grading]:
    """Coarsenings of `base` along all_homs into each menu group, with free
    images bounded by the dimension: the first per partition, sorted by
    partition.

    Target coordinate k of a basis vector's image degree depends only on
    the modulus m of k (0 when k is free) and the images' k-th coordinates
    a: it is the sum over source generators s of a[s] times the s-th base
    coordinate, reduced mod m when m is nonzero.  The first-occurrence
    labels of that column over the basis are computed once per (m, a) in
    the call and shared by every menu group; few such pairs occur, though
    the homomorphisms number tens of thousands.  Each coordinate's labels
    relabel its values one to one, so the zipped per-coordinate labels
    relabel the image degrees one to one: a key that determines the
    partition.  The sweep keys each homomorphism on it as it stands (the
    labels themselves with one coordinate, (0,) * n for the trivial group)
    and keeps the first (group, images) per key.  Only after the sweep is
    each distinct key relabelled, once, into its first-occurrence labels,
    which are the partition's; the first representative per partition is
    kept, in key insertion order.  That is the first homomorphism with
    that partition, since it is the first homomorphism of the earliest key
    mapping to the partition.  The sweep builds no group element per
    homomorphism, and a Grading only for the first homomorphism per
    partition.
    """
    n = base.algebra.dim
    base_columns = list(zip(*(d.coords for d in base.degrees)))
    column_labels: dict[tuple, tuple] = {}
    seen: dict[tuple, tuple] = {}
    for group in group_menu:
        moduli = (0,) * group.free_rank + group.torsion
        for images in all_homs(base.group, group, n):
            per_coordinate = []
            for k, m in enumerate(moduli):
                coeffs = (m,) + tuple(g.coords[k] for g in images)
                labels = column_labels.get(coeffs)
                if labels is None:
                    column = [0] * n
                    for a, base_column in zip(coeffs[1:], base_columns):
                        if a:
                            column = [x + a * b for x, b in zip(column, base_column)]
                    first: dict = {}
                    labels = tuple(first.setdefault(x % m if m else x, len(first)) for x in column)
                    column_labels[coeffs] = labels
                per_coordinate.append(labels)
            if len(per_coordinate) == 1:
                key = per_coordinate[0]
            else:
                # the trivial group has no coordinates
                key = tuple(zip(*per_coordinate)) if per_coordinate else (0,) * n
            seen.setdefault(key, (group, images))
    by_partition: dict[tuple, tuple] = {}
    for key, first_hom in seen.items():
        first = {}
        by_partition.setdefault(tuple([first.setdefault(d, len(first)) for d in key]), first_hom)
    return sorted((coarsen(base, group, images) for group, images in by_partition.values()),
                  key=Grading.partition)


def _span(rows) -> list[tuple[int, list[int]]]:
    """(pivot column, row) for each nonzero row of the Hermite form of the
    lattice `rows` span.  `rows` is a fresh list, brought to Hermite form in
    place with no transform; its row lists are only replaced, never changed."""
    _hnf(rows, [[] for _ in rows])
    return [(next(c for c, x in enumerate(row) if x), row) for row in rows if any(row)]


def _in_span(hnf, v) -> bool:
    """Whether v lies in the lattice with Hermite rows `hnf`, as (pivot
    column, row) pairs: reduce v at each pivot; a pivot that does not divide
    v's entry, or a nonzero remainder, puts v outside."""
    v = list(v)
    for c, row in hnf:
        if v[c]:
            q, r = divmod(v[c], row[c])
            if r:
                return False
            v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def homogeneous_partitions(algebra: Algebra):
    """Every partition of a grading with homogeneous standard basis, by any
    abelian group, sorted; returns (partitions, lattices).

    Each such grading coarsens the universal grading of the discrete
    partition along some U -> G with kernel H, and e_i, e_j share a degree
    iff d_j - d_i lies in H, with d the universal degrees.  So the partition
    depends only on S = H ∩ D, D the distinct differences d_j - d_i (i < j),
    and every such S is closed: S = span(S) ∩ D.  A breadth-first search
    from the empty set adds one δ in D at a time and closes, S' =
    span(S ∪ {δ}) ∩ D, deduplicating on S'; each closed set comes out once,
    and each is the partition of the grading by U / span(S).  Spans are
    Hermite forms (`snf._hnf`, with no transform) holding m·e_k for each
    torsion coordinate k of U, of invariant factor m, so they are taken in
    U, not in Z^m.
    `lattices` counts the spans formed.  Patera and Zassenhaus, On Lie
    gradings I, Linear Algebra Appl. 112 (1989); Elduque and Kochetov,
    Gradings on Simple Lie Algebras, AMS (2013), ch. 1.

    Raises UnsupportedFamily when the discrete partition has no universal
    grading (lie_q).
    """
    pair = universal_grading(algebra)
    if pair is None:
        raise UnsupportedFamily("the discrete partition admits no universal grading here")
    group, base = pair
    n = algebra.dim
    moduli = (0,) * group.free_rank + group.torsion
    coords = [d.coords for d in base.degrees]
    pair_diff = {}
    for j in range(n):
        for i in range(j):
            pair_diff[i, j] = tuple((b - a) % m if m else b - a
                                    for a, b, m in zip(coords[i], coords[j], moduli))
    diffs = sorted(set(pair_diff.values()))
    # the torsion rows m·e_k are already in Hermite form, pivot k each
    torsion = [(k, [m if k == c else 0 for c in range(len(moduli))])
               for k, m in enumerate(moduli) if m]
    spans = {frozenset(): torsion}
    queue = [frozenset()]
    lattices = 0
    for closed in queue:
        hnf = spans[closed]
        for delta in diffs:
            if delta in closed:
                continue
            span = _span([row for _, row in hnf] + [list(delta)])
            lattices += 1
            # the new span holds the old one, so only the rest of D is tested
            grown = frozenset(x for x in diffs if x in closed or _in_span(span, x))
            if grown not in spans:
                spans[grown] = span
                queue.append(grown)
    # e_j is labelled by the least e_i sharing its degree
    partitions = [
        tuple(_blocks(next((i for i in range(j) if pair_diff[i, j] in closed), j)
                      for j in range(n)).values())
        for closed in queue
    ]
    return sorted(partitions), lattices


def equivalent(g1: Grading, g2: Grading) -> bool:
    """Weak equivalence of homogeneous-basis gradings.

    For valid gradings on one algebra this is equality of the induced
    partitions: the degree bijection between supports then matches up
    every realized degree sum automatically, because both sides satisfy
    the same closure constraints.
    """
    if not g1.algebra.same_structure(g2.algebra):
        raise DifferentAlgebras("gradings live on different algebras")
    return g1.partition() == g2.partition()


def factor_through_universal(grading: Grading):
    """Express a valid grading as a coarsening of the universal grading
    of its own partition.

    Returns (group, universal grading, images) such that coarsening the
    universal grading by generator -> image reproduces `grading`.
    """
    result = universal_grading_with_generators(grading.algebra, grading.partition())
    if result is None:
        raise ValueError("not a valid grading: its partition admits no grading")
    group, base, gen_exprs = result
    blocks = base.partition()
    block_degrees = [grading.degree(ids[0]) for ids in blocks]
    return group, base, [apply_hom(block_degrees, expr, grading.group) for expr in gen_exprs]
