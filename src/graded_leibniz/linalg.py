"""Exact linear algebra over a Field: row reduction, kernels, subspaces.

Matrices are lists of row vectors of raw values: Fractions over Q, ints
in [0, p) over F_p.  Every elimination runs through one loop,
`reduce_vector`, which reduces one vector against echelon rows built so
far and can extend them by it (the automorphism walk's rank test,
Subspace membership and complements).  `rref` reduces a whole matrix on
it: for Subspace, affine_solve, raw_inverse (and through it
snf.int_matrix_inverse), SubspaceGrading, is_automorphism and the torus
searches' systems.  Subspaces hold their reduced row echelon basis as raw
rows, so subspace equality is plain row comparison.  Scalars appear only
in `_values`, which checks a Scalar matrix's field and reads off its raw
values.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatch
from .fields import Field, Scalar


def rref(rows: list[list], p: int | None = None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of raw values; returns (nonzero rows, 0-based pivots).

    Entries are Fractions when p is None (ints are promoted to Fractions)
    and ints reduced mod p otherwise.  Each row is reduced against the
    echelon rows before it and kept when a residue is left (reduce_vector
    with extend); then each kept row, last first, is cleared at the pivots
    of the rows after it, and the rows are sorted by pivot.
    """
    out: list[list] = []
    pivots: list[int] = []
    for row in rows:
        v = [Fraction(x) for x in row] if p is None else [x % p for x in row]
        reduce_vector(out, pivots, v, p, extend=True)
    for s in range(len(out) - 2, -1, -1):
        out[s] = reduce_vector(out[s + 1:], pivots[s + 1:], out[s], p)
    order = sorted(range(len(out)), key=pivots.__getitem__)
    return [out[t] for t in order], [pivots[t] for t in order]


def reduce_vector(rows: list[list], pivots: list[int], v,
                  p: int | None = None, extend: bool = False):
    """Residue of v after elimination against rows, all raw values already
    reduced (Fractions over Q, ints in [0, p) over F_p); v itself when no
    row touches it.

    Row t must be 1 at column pivots[t] and 0 at the pivots of the rows
    before it, as every RREF basis is; one pass in order then clears v
    at every pivot.  With extend, a nonzero residue is scaled to 1 at its
    first nonzero entry and appended to rows, that entry to pivots (so
    they keep the form above), and the scaled residue is returned.
    """
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            if p is None:  # skipping y == 0 saves a Fraction product per zero of row
                v = [x - f * y if y else x for x, y in zip(v, row)]
            else:
                v = [(x - f * y) % p for x, y in zip(v, row)]
    if extend:
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is not None:
            if p is None:
                inv = 1 / v[lead]
                v = [x * inv for x in v]
            else:
                inv = pow(v[lead], -1, p)
                v = [x * inv % p for x in v]
            rows.append(v)
            pivots.append(lead)
    return v


def affine_solve(rows: list[list], ncols: int,
                 p: int | None = None) -> tuple[list, list[list]] | None:
    """Solutions of the augmented rows [A | b] of raw values (see rref),
    each ncols coefficients and a constant: (x0, basis) with {x : A x = b} =
    x0 + span(basis), x0 zero at the free columns and one basis vector per
    free column, 1 there and 0 at the others; None when inconsistent."""
    reduced, pivots = rref(rows, p)
    if pivots and pivots[-1] == ncols:
        return None
    zero, one = (Fraction(0), Fraction(1)) if p is None else (0, 1)
    x0 = [zero] * ncols
    for row, c in zip(reduced, pivots):
        x0[c] = row[ncols]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[f] = one
        for row, c in zip(reduced, pivots):
            v[c] = -row[f] if p is None else -row[f] % p
        basis.append(v)
    return x0, basis


def raw_inverse(m: list[list], p: int | None = None) -> list[list] | None:
    """Inverse of a square matrix of raw values (see rref), or None when singular."""
    n = len(m)
    aug = [list(row) + [0] * n for row in m]
    for i in range(n):
        aug[i][n + i] = 1
    reduced, pivots = rref(aug, p)
    # [m | I] has rank n, so m is invertible iff every pivot lies in m's columns
    return None if pivots and pivots[-1] >= n else [row[n:] for row in reduced]


def _values(m: list[list[Scalar]], field: Field) -> list[list]:
    """Raw values of a Scalar matrix whose entries must all lie in `field`."""
    if any(s.field is not field and s.field != field for row in m for s in row):
        raise FieldMismatch(f"matrix over {field!r} holds scalars of another field")
    return [[s.value for s in row] for row in m]


#: the raw value types a Subspace accepts over Q and over F_p
_EXACT_Q = frozenset((int, Fraction))
_EXACT_FP = frozenset((int,))


class Subspace:
    """A subspace of F^n held in canonical RREF basis form.

    Vectors in and rows out are raw values (see rref): Fractions over Q,
    ints in [0, p) over F_p.  Vectors in may hold ints or Fractions over Q
    and ints over F_p; anything else (a bool, a float, a string) raises
    ValueError, as Field.scalar refuses it.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field: Field, ambient_dim: int, vectors: list[list]):
        self.field = field
        self.ambient_dim = ambient_dim
        for v in vectors:
            self._check(v)
        self.rows, self.pivots = rref(vectors, field.p)

    def _check(self, v: list) -> None:
        """Refuse a vector of the wrong length or holding a value that is not raw."""
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        exact = _EXACT_Q if self.field.p is None else _EXACT_FP
        # exact types, not isinstance: bool is an int subclass
        if not exact.issuperset(map(type, v)):
            bad = next(x for x in v if type(x) not in exact)
            raise ValueError(f"{bad!r} is not a raw value over {self.field!r}")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: list) -> list:
        """Residue of v after elimination against the basis rows."""
        self._check(v)
        p = self.field.p
        v = [Fraction(x) for x in v] if p is None else [x % p for x in v]
        return reduce_vector(self.rows, self.pivots, v, p)

    def contains(self, v: list) -> bool:
        return not any(self.reduce(v))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient_dim})"

    def is_zero(self) -> bool:
        return not self.rows

    def basis_complement_in(self, larger: "Subspace") -> list[list]:
        """Rows of `larger` extending this subspace's basis (representatives mod self)."""
        rows, pivots = list(self.rows), list(self.pivots)
        return [v for v in larger.rows
                if any(reduce_vector(rows, pivots, v, self.field.p, extend=True))]

    @staticmethod
    def full(field: Field, n: int) -> "Subspace":
        return Subspace(field, n, [[int(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(field: Field, n: int) -> "Subspace":
        return Subspace(field, n, [])
