"""Exact linear algebra over a Field: row reduction, kernels, subspaces.

Matrices are lists of row vectors.  Every row reduction over Q and F_p
(here, in snf.int_matrix_inverse and in the torus searches) runs through
one kernel, `rref`, on raw values: Fractions over Q, ints in [0, p) over
F_p.  Subspaces hold their reduced row echelon basis as raw rows, so
subspace equality is plain row comparison.  The Scalar helpers below
(unit vectors, matrix products, `invert`) serve callers that work on
Scalar matrices, such as torus.is_automorphism.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatch
from .fields import Field, Scalar


def unit_vector(field: Field, n: int, i: int) -> list[Scalar]:
    """Standard basis vector e_i, 1-based."""
    v = [field.zero()] * n
    v[i - 1] = field.one()
    return v

def identity_matrix(field: Field, n: int) -> list[list[Scalar]]:
    return [unit_vector(field, n, i) for i in range(1, n + 1)]

def mat_vec(m: list[list[Scalar]], v: list[Scalar]) -> list[Scalar]:
    if m and len(m[0]) != len(v):
        raise ValueError("matrix/vector length mismatch")
    return [sum((row[j] * v[j] for j in range(len(v))), v[0].field.zero()) for row in m]

def mat_mul(a: list[list[Scalar]], b: list[list[Scalar]]) -> list[list[Scalar]]:
    if len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    zero = a[0][0].field.zero()
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in bt] for row in a]

def column(m: list[list[Scalar]], j: int) -> list[Scalar]:
    """Column j of a matrix, 1-based."""
    return [row[j - 1] for row in m]


def rref(rows: list[list], p: int | None = None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of raw values; returns (nonzero rows, 0-based pivots).

    Entries are Fractions when p is None (ints are promoted to Fractions)
    and ints reduced mod p otherwise.
    """
    if p is None:
        rows = [[Fraction(x) for x in row] for row in rows]
    else:
        rows = [[x % p for x in row] for row in rows]
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        if p is None:
            inv = 1 / rows[r][c]
            prow = rows[r] = [x * inv for x in rows[r]]
        else:
            inv = pow(rows[r][c], -1, p)
            prow = rows[r] = [x * inv % p for x in rows[r]]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                if p is None:
                    rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
                else:
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


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


def invert(m: list[list[Scalar]]) -> list[list[Scalar]] | None:
    """Matrix inverse over the field, or None when singular."""
    field = m[0][0].field
    inv = raw_inverse(_values(m, field), field.p)
    return None if inv is None else [[Scalar(field, v) for v in row] for row in inv]


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
        for row, c in zip(self.rows, self.pivots):
            f = v[c]
            if f:
                if p is None:
                    v = [x - f * y for x, y in zip(v, row)]
                else:
                    v = [(x - f * y) % p for x, y in zip(v, row)]
        return v

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
        stack, out = list(self.rows), []
        for v in larger.rows:
            if len(rref(stack + [v], self.field.p)[0]) > len(stack):
                stack.append(v)
                out.append(v)
        return out

    @staticmethod
    def full(field: Field, n: int) -> "Subspace":
        return Subspace(field, n, [[int(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(field: Field, n: int) -> "Subspace":
        return Subspace(field, n, [])
