"""Exact linear algebra over a Field: row reduction, kernels, subspaces.

Vectors are lists of Scalar; matrices are lists of row vectors.
All results are canonical (reduced row echelon form) so subspace
equality is plain row comparison.  Row reduction and inversion over Q
and F_p (here, in snf.int_matrix_inverse and in the torus searches) all
run through one kernel, `gauss_jordan`, on raw values (Fractions over
Q, ints mod p); Scalars appear only in the wrappers around it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatch
from .fields import Field, Scalar


def zero_vector(field: Field, n: int) -> list[Scalar]:
    return [field.zero()] * n

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


def gauss_jordan(rows: list[list], p: int | None = None) -> tuple[list[list], list[int]]:
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
    """Solutions of the augmented rows [A | b] of raw values (see gauss_jordan),
    each ncols coefficients and a constant: (x0, basis) with {x : A x = b} =
    x0 + span(basis), x0 zero at the free columns and one basis vector per
    free column, 1 there and 0 at the others; None when inconsistent."""
    reduced, pivots = gauss_jordan(rows, p)
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
    """Inverse of a square matrix of raw values (see gauss_jordan), or None when singular."""
    n = len(m)
    aug = [list(row) + [0] * n for row in m]
    for i in range(n):
        aug[i][n + i] = 1
    reduced, pivots = gauss_jordan(aug, p)
    # [m | I] has rank n, so m is invertible iff every pivot lies in m's columns
    return None if pivots and pivots[-1] >= n else [row[n:] for row in reduced]


def _values(m: list[list[Scalar]], field: Field) -> list[list]:
    """Raw values of a Scalar matrix whose entries must all lie in `field`."""
    if any(s.field is not field and s.field != field for row in m for s in row):
        raise FieldMismatch(f"matrix over {field!r} holds scalars of another field")
    return [[s.value for s in row] for row in m]


def rref(rows: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, 0-based pivot columns)."""
    if not rows or not rows[0]:
        return [], []
    field = rows[0][0].field
    reduced, pivots = gauss_jordan(_values(rows, field), field.p)
    return [[Scalar(field, v) for v in row] for row in reduced], pivots


def kernel_basis(m: list[list[Scalar]], field: Field, ncols: int) -> list[list[Scalar]]:
    """Basis of {x : m @ x = 0}, one vector per free column (see affine_solve)."""
    _, basis = affine_solve([row + [0] for row in _values(m, field)], ncols, field.p)
    return [[Scalar(field, v) for v in vec] for vec in basis]


def invert(m: list[list[Scalar]]) -> list[list[Scalar]] | None:
    """Matrix inverse over the field, or None when singular."""
    field = m[0][0].field
    inv = raw_inverse(_values(m, field), field.p)
    return None if inv is None else [[Scalar(field, v) for v in row] for row in inv]


class Subspace:
    """A subspace of F^n held in canonical RREF basis form."""

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field: Field, ambient_dim: int, vectors: list[list[Scalar]]):
        self.field = field
        self.ambient_dim = ambient_dim
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        self.rows, self.pivots = rref(vectors)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: list[Scalar]) -> list[Scalar]:
        """Residue of v after elimination against the basis rows."""
        v = v[:]
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                f = v[c]
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def contains(self, v: list[Scalar]) -> bool:
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

    def basis_complement_in(self, larger: "Subspace") -> list[list[Scalar]]:
        """Rows of `larger` extending this subspace's basis (representatives mod self)."""
        stack, out = list(self.rows), []
        for v in larger.rows:
            if len(rref(stack + [v])[0]) > len(stack):
                stack.append(v)
                out.append(v)
        return out

    @staticmethod
    def full(field: Field, n: int) -> "Subspace":
        return Subspace(field, n, identity_matrix(field, n))

    @staticmethod
    def zero(field: Field, n: int) -> "Subspace":
        return Subspace(field, n, [])
