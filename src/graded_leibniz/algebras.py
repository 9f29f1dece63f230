"""Finite-dimensional algebras given by exact structure constants.

The bracket of basis vectors is [e_i, e_j] = sum_k c_{ij}^k e_k with the
c's stored sparsely.  The built-in families are the nilpotent Leibniz
algebras used throughout the verification suite:

  nf     null-filiform:            [e_i, e_1] = e_{i+1},  1 <= i <= n-1
  f1     filiform, non-Lie:        [e_i, e_1] = e_{i+1},  2 <= i <= n-1
  f2     filiform, non-Lie:        [e_i, e_1] = e_{i+1},  1 <= i <= n-2
  lie_l  filiform Lie:             [e_i, e_1] = -[e_1, e_i] = e_{i+1}, 2 <= i <= n-1
  lie_q  filiform Lie, n even:     lie_l products plus
                                   [e_i, e_{n+1-i}] = -[e_{n+1-i}, e_i] = (-1)^{i+1} e_n

For lie_q the pairs summing to n+1 are forced: a pairing on i+j = n has a
fixed point at i = n/2 (incompatible with antisymmetry) and its sign
alternation is incompatible with antisymmetry for even n.  check_leibniz
confirms the stored constants mechanically.

Indices are 1-based everywhere, matching the usual e_1..e_n notation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DimensionTooLarge,
    DimensionTooSmall,
    FieldMismatch,
    GradedLeibnizError,
    QnOddDimension,
    UnsupportedFamily,
)
from .fields import QQ, Field, Scalar
from .linalg import Subspace, affine_solve

FAMILIES = ("nf", "f1", "f2", "lie_l", "lie_q")

#: the largest dimension an algebra may have.  The lower central series
#: starts from the n x n identity and row-reduces n x n systems, so time
#: and memory grow without bound in n: a document with "dim": 2**70 would
#: never finish.  Every test, benchmark workload and claim stays at or
#: below 24; at 1,024, `props` on one stored bracket takes about 5 s and
#: 200 MB on a 2-vCPU host.
MAX_DIM = 1024


def _check_dim(n: int) -> None:
    if n > MAX_DIM:
        raise DimensionTooLarge(f"dimension {n} is above the cap of {MAX_DIM}")


class Algebra:
    """An algebra over an exact field, defined by structure constants."""

    __slots__ = ("dim", "field", "sc", "label")

    def __init__(self, dim: int, field: Field, sc: dict, label: str = "custom"):
        if type(dim) is not int:
            raise ValueError(f"dimension {dim!r} is not an integer")
        if dim < 1:
            raise DimensionTooSmall("dimension must be at least 1")
        _check_dim(dim)
        self.dim = dim
        self.field = field
        self.label = label
        #: (i, j) -> ((k, c), ...) with raw c: over Q an int when c is
        #: integral and a Fraction otherwise, over F_p an int in [0, p)
        self.sc: dict[tuple[int, int], tuple[tuple[int, Fraction | int], ...]] = {}
        for (i, j), terms in sc.items():
            if not (type(i) is int and type(j) is int and 1 <= i <= dim and 1 <= j <= dim):
                raise ValueError(f"structure constant index ({i!r},{j!r}) out of range")
            acc: dict[int, Scalar] = {}
            for k, c in terms:
                if not (type(k) is int and 1 <= k <= dim):
                    raise ValueError(f"structure constant target {k!r} out of range")
                acc[k] = acc.get(k, field.zero()) + field.scalar(c)
            # Field.scalar gives Fractions over Q; integral ones are kept as ints
            cleaned = tuple((k, c.value.numerator if c.value.denominator == 1 else c.value)
                            for k, c in sorted(acc.items()) if c)
            if cleaned:
                self.sc[(i, j)] = cleaned

    # -- basic structure -------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> tuple[tuple[int, Scalar], ...]:
        """[e_i, e_j] as a sparse list of (index, coefficient)."""
        return tuple((k, Scalar(self.field, c)) for k, c in self.sc.get((i, j), ()))

    def product(self, x: list[Scalar], y: list[Scalar]) -> list[Scalar]:
        """Bracket of two coefficient vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("coefficient vector length does not match the dimension")
        out = self.raw_product([s.value for s in x], [s.value for s in y])
        return [Scalar(self.field, v) for v in out]

    def raw_product(self, x: list, y: list) -> list:
        """Bracket of two raw coefficient vectors (ints and Fractions over Q,
        ints in [0, p) over F_p)."""
        p = self.field.p
        out = [0] * self.dim
        for (i, j), terms in self.sc.items():
            f = x[i - 1] * y[j - 1]
            if f:
                for k, c in terms:
                    v = out[k - 1] + c * f
                    out[k - 1] = v if p is None else v % p
        return out

    def same_structure(self, other: "Algebra") -> bool:
        """Equality of (dim, field, structure constants); labels ignored."""
        return (
            isinstance(other, Algebra)
            and self.dim == other.dim
            and self.field == other.field
            and self.sc == other.sc
        )

    def __repr__(self):
        return f"Algebra({self.label}, dim={self.dim}, field={self.field!r})"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for (i, j) in sorted(self.sc):
            terms = [{"k": k, "c": c.to_json()} for k, c in self.bracket_basis(i, j)]
            entries.append({"i": i, "j": j, "terms": terms})
        doc = {"dim": self.dim, "field": self.field.to_json(), "sc": entries}
        if self.label != "custom":
            doc["label"] = self.label
        return doc

    @staticmethod
    def from_json(doc: dict) -> "Algebra":
        field = Field.from_json(doc["field"])
        sc = {}
        entries = doc["sc"]
        # iterating "" or {} would read as no constants
        if not isinstance(entries, list):
            raise ValueError(f"sc {entries!r} is not a list of entries")
        for entry in entries:
            key = (entry["i"], entry["j"])
            if key in sc:
                raise ValueError(f"duplicate structure constant entry for {key}")
            terms = entry["terms"]
            if not isinstance(terms, list):
                raise ValueError(f"terms {terms!r} of entry {key} are not a list")
            sc[key] = [(t["k"], t["c"]) for t in terms]
            # the constructor sums repeated targets, so k: c, k: -c would read as none
            targets = [k for k, _ in sc[key]]
            if len(set(targets)) < len(targets):
                raise ValueError(f"entry {key} repeats a target k in its terms")
        alg = Algebra(doc["dim"], field, sc)
        label = doc.get("label", "custom")
        try:  # a family label stands only on that family's own constants
            if alg.same_structure(make_family(label, alg.dim, field)):
                alg.label = label
        except GradedLeibnizError:
            pass
        return alg


# -- constructors --------------------------------------------------------


def make_family(family: str, n: int, field: Field = QQ) -> Algebra:
    """One of the built-in families on basis e_1..e_n."""
    if family not in FAMILIES:
        raise UnsupportedFamily(f"unknown family {family!r}; expected one of {FAMILIES}")
    if n < 2:
        raise DimensionTooSmall(f"family {family} needs dimension >= 2")
    _check_dim(n)
    one = field.one()
    sc: dict[tuple[int, int], list[tuple[int, Scalar]]] = {}
    if family == "nf":
        for i in range(1, n):
            sc[(i, 1)] = [(i + 1, one)]
    elif family == "f1":
        for i in range(2, n):
            sc[(i, 1)] = [(i + 1, one)]
    elif family == "f2":
        for i in range(1, n - 1):
            sc[(i, 1)] = [(i + 1, one)]
    elif family in ("lie_l", "lie_q"):
        if family == "lie_q" and n % 2:
            raise QnOddDimension("the quadratic Lie family needs even dimension")
        for i in range(2, n):
            sc[(i, 1)] = [(i + 1, one)]
            sc[(1, i)] = [(i + 1, -one)]
        if family == "lie_q":
            for i in range(2, n):
                j = n + 1 - i
                if 2 <= j <= n - 1:
                    sign = one if i % 2 else -one
                    sc[(i, j)] = [(n, sign)]
    return Algebra(n, field, sc, label=family)


def abelian_algebra(n: int, field: Field = QQ) -> Algebra:
    """The n-dimensional algebra with all products zero."""
    return Algebra(n, field, {}, label="custom")


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """Direct sum; b's basis indices are shifted past a's."""
    if a.field != b.field:
        raise FieldMismatch("direct summands live over different fields")
    sc = dict(a.sc)
    d = a.dim
    for (i, j), terms in b.sc.items():
        sc[(i + d, j + d)] = [(k + d, c) for k, c in terms]
    return Algebra(a.dim + b.dim, a.field, sc, label="custom")


# -- identities ----------------------------------------------------------


class LeibnizReport(NamedTuple):
    ok: bool
    first_violation: tuple[int, int, int] | None = None


def _is_zero_sum(rows, p: int | None) -> bool:
    """True when the sum of c * row over the (row, c) pairs vanishes; rows are rows of sc."""
    total: dict[int, Fraction | int] = {}
    for row, c in rows:
        for k, d in row:
            total[k] = total.get(k, 0) + c * d
    return not any(v if p is None else v % p for v in total.values())


def check_leibniz(alg: Algebra) -> LeibnizReport:
    """Verify [x, [y, z]] - [[x, y], z] + [[x, z], y] == 0 on all basis triples.

    Bilinearity makes the basis check sufficient, and a bracket of two
    basis vectors is a row of alg.sc, so each side is a sum of stored
    rows.  For each (x, y) only the z that a stored bracket reaches are
    checked: [x, [y, z]] needs [e_y, e_z] stored, [[x, z], y] needs
    [e_x, e_z] stored, and [[x, y], z] needs [e_k, e_z] stored for a
    target k of [e_x, e_y]; every other triple has all three terms zero.
    The z run in increasing order, so the first violating triple
    (x, y, z) in lexicographic order is returned, if any.
    """
    sc, p, n = alg.sc, alg.field.p, alg.dim
    basis = range(1, n + 1)
    partners: dict[int, set[int]] = {i: set() for i in basis}  # z with [i, z] stored
    for i, j in sc:
        partners[i].add(j)
    for x in basis:
        for y in basis:
            xy = sc.get((x, y), ())
            for z in sorted(partners[x].union(partners[y], *(partners[k] for k, _ in xy))):
                rows = [(r, c) for k, c in sc.get((y, z), ()) if (r := sc.get((x, k)))]
                rows += [(r, -c) for k, c in xy if (r := sc.get((k, z)))]
                rows += [(r, c) for k, c in sc.get((x, z), ()) if (r := sc.get((k, y)))]
                if rows and not _is_zero_sum(rows, p):
                    return LeibnizReport(False, (x, y, z))
    return LeibnizReport(True, None)


def is_antisymmetric(alg: Algebra) -> bool:
    """True when [e_i, e_i] == 0 and [e_i, e_j] == -[e_j, e_i] for all basis pairs.

    By bilinearity this is [x, x] = 0 for every x.  The diagonal needs
    its own test: in characteristic 2, -c = c, so [e_i, e_i] ==
    -[e_i, e_i] holds for any constant.  Only stored brackets are
    compared: a pair stored in neither order passes.
    """
    sc, p = alg.sc, alg.field.p
    return all(i != j and _is_zero_sum([(terms, 1), (sc.get((j, i), ()), 1)], p)
               for (i, j), terms in sc.items())


# -- series and invariant subspaces --------------------------------------


def _right_products(by_left: dict[int, list], v: list, n: int) -> list[list]:
    """[v, e_j] for every j at once as raw rows (not reduced); by_left maps i
    to the (j, terms) of the brackets [e_i, e_j] stored, so only the nonzero
    coordinates of v and the brackets they start are visited.  j whose
    product has no term is left out."""
    by_j: dict[int, list] = {}
    for i, a in enumerate(v, 1):
        if a and i in by_left:
            for j, terms in by_left[i]:
                w = by_j.setdefault(j, [0] * n)
                for k, c in terms:
                    w[k - 1] += c * a
    return list(by_j.values())


def _annihilator_systems(alg: Algebra) -> tuple[list[list], list[list]]:
    """Raw rows of two linear systems: the solutions of the first are
    {x : [x, e_j] = 0 for all j}, those of the second {x : [e_i, x] = 0 for all i}."""
    left: dict[tuple[int, int], list] = {}
    right: dict[tuple[int, int], list] = {}
    for (i, j), terms in alg.sc.items():
        for k, c in terms:
            left.setdefault((j, k), [0] * alg.dim)[i - 1] = c
            right.setdefault((i, k), [0] * alg.dim)[j - 1] = c
    return list(left.values()), list(right.values())


def lower_central_series(alg: Algebra) -> list[Subspace]:
    """L^1 = L, L^{k+1} = [L^k, L], listed until zero or stabilization.

    The first repeated term is kept as the non-nilpotency witness.
    """
    field, n = alg.field, alg.dim
    by_left: dict[int, list] = {}  # i -> (j, terms) for each stored [e_i, e_j]
    for (i, j), terms in alg.sc.items():
        by_left.setdefault(i, []).append((j, terms))
    series = [Subspace.full(field, n)]
    while not series[-1].is_zero() and len(series) <= n + 1:
        prev = series[-1]
        nxt = Subspace(field, n, [w for v in prev.rows for w in _right_products(by_left, v, n)])
        series.append(nxt)
        if nxt == prev:
            break
    return series


class NilpotencyProfile(NamedTuple):
    dims: tuple[int, ...]
    nilpotent: bool
    index: int | None
    null_filiform: bool
    filiform: bool


def nilpotency_profile(alg: Algebra) -> NilpotencyProfile:
    series = lower_central_series(alg)
    dims = tuple(s.dim for s in series)
    n = alg.dim
    nilpotent = dims[-1] == 0
    index = len(dims) if nilpotent else None
    null_filiform = nilpotent and dims == tuple(range(n, -1, -1))
    filiform = nilpotent and len(dims) == n and all(
        dims[i - 1] == n - i for i in range(2, n + 1)
    )
    return NilpotencyProfile(dims, nilpotent, index, null_filiform, filiform)


def _bracket_kernel(alg: Algebra, both_sides: bool) -> Subspace:
    """{x : [e_i, x] = 0 for all i}, and also [x, e_i] = 0 when both_sides."""
    n, field = alg.dim, alg.field
    left, right = _annihilator_systems(alg)
    rows = [row + [0] for row in right + (left if both_sides else [])]
    _, basis = affine_solve(rows, n, field.p)
    return Subspace(field, n, basis)


def right_annihilator(alg: Algebra) -> Subspace:
    """{x : [y, x] = 0 for all y}, the two-sided ideal of right annihilators."""
    return _bracket_kernel(alg, both_sides=False)


def center(alg: Algebra) -> Subspace:
    """{x : [x, y] = [y, x] = 0 for all y}."""
    return _bracket_kernel(alg, both_sides=True)
