"""Exact linear algebra over a Field: row reduction, kernels, subspaces.

Matrices are lists of row vectors of raw values: ints and Fractions over
Q, ints in [0, p) over F_p.  Every elimination runs through one loop,
`reduce_vector`, which reduces one vector against echelon rows built so
far and can extend them by it (the automorphism walk's rank test and
Subspace membership).  Over F_p an echelon row is 1 at its pivot; over Q
it is a primitive integer row, whose pivot entry need not be 1.
`rref` reduces a whole matrix on it: for Subspace, affine_solve,
is_automorphism and the torus searches' systems (integer matrices are
inverted in snf, on its Hermite loop).  Over Q it is fraction-free: it
clears each row's denominators once, eliminates on integer rows divided
by their content, and returns them so: ints with content 1, positive at
their pivot and 0 at every other pivot.  These rows are as canonical as
the pivot-1 form, so Subspaces hold them and subspace equality is plain
row comparison.  `unit_rows` builds the pivot-1 Fraction rows, only
where a rational value leaves the kernel: affine_solve's solutions,
raw_inverse, Subspace.reduce and the CLI's printed rows.  Scalars appear
only in `_values`, which checks a Scalar matrix's field and reads off its
raw values.  No library code calls `raw_inverse`: it is the tests'
reference inverse, for snf's integer inverse and the torus zero-pattern
checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import FieldMismatch
from .fields import Field, Scalar


#: one zero serves every row unit_rows builds: Fractions are immutable
_ZERO = Fraction(0)


def _cleared(row: list) -> list[int]:
    """A row of ints and Fractions times the lcm of its denominators: an
    integer row spanning the same line."""
    if all(type(x) is int for x in row):
        return list(row)
    d = lcm(*{x.denominator for x in row})
    return [x.numerator * (d // x.denominator) for x in row]


def rref(rows: list[list], p: int | None = None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of raw values; returns (nonzero rows, 0-based pivots).

    Over F_p (p given) the entries are ints reduced mod p and each row is
    1 at its pivot.  Over Q (p None; ints and Fractions in) each row is
    the primitive integer multiple of its pivot-1 form: ints with content
    1 and a positive pivot entry, 0 at the other rows' pivots, which is
    just as canonical (unit_rows gives the pivot-1 Fractions).  Each row
    is reduced against the echelon rows before it and kept when a residue
    is left (reduce_vector with extend); then each kept row, last first,
    is cleared at the pivots of the rows after it, and the rows are sorted
    by pivot.  Over Q each input row is first multiplied by the lcm of its
    denominators, and each kept row is divided by its content.
    """
    out: list[list] = []
    pivots: list[int] = []
    for row in rows:
        v = [x % p for x in row] if p is not None else _cleared(row)
        reduce_vector(out, pivots, v, p, extend=True)
    for s in range(len(out) - 2, -1, -1):
        v = reduce_vector(out[s + 1:], pivots[s + 1:], out[s], p)
        if p is None and v[pivots[s]] != 1:  # a row led by 1 is primitive
            g = gcd(*v)  # positive: the leading entry was only multiplied by positive pivots
            v = [x // g for x in v]
        out[s] = v
    order = sorted(range(len(out)), key=pivots.__getitem__)
    return [out[t] for t in order], [pivots[t] for t in order]


def unit_rows(rows: list[list[int]], pivots: list[int]) -> list[list[Fraction]]:
    """Over Q, echelon rows (as rref returns them) scaled to 1 at their
    pivots, as Fractions: the reduced row echelon form in its usual shape."""
    return [[Fraction(x, row[c]) if x else _ZERO for x in row] for row, c in zip(rows, pivots)]


def reduce_vector(rows: list[list], pivots: list[int], v,
                  p: int | None = None, extend: bool = False):
    """Residue of v after elimination against rows, all raw values already
    reduced (ints or Fractions over Q, ints in [0, p) over F_p); v itself
    when no row touches it.

    Row t must be nonzero at column pivots[t] and 0 at the pivots of the
    rows before it, as every echelon basis is; one pass in order then
    clears v at every pivot.  Over F_p every pivot entry must be 1.  Over
    Q a row with pivot entry a != 1 updates v to a*v - f*row, so against
    a Subspace basis or rref's rows the residue is v minus a combination
    of rows only up to a positive factor, which is enough to decide
    membership; against rows that are 1 at their pivots (unit_rows) it is
    exactly v - sum v[c]*row.  With extend, a nonzero residue is appended
    to rows and the index of its first nonzero entry to pivots (so they
    keep the form above), and returned: over F_p scaled to 1 there, over
    Q divided by its content with its leading entry made positive.
    Extending over Q takes integer rows and v only, as rref passes them.
    A residue already led by 1 is appended as it is, which may be v
    itself.  A zero residue appends nothing, so a caller can read whether
    v was independent of the rows off their count.
    """
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            if p is None:
                a = row[c]
                if a == 1:  # skipping y == 0 saves a product per zero of row
                    v = [x - f * y if y else x for x, y in zip(v, row)]
                else:  # clears v[c] and keeps an integer v integral
                    v = [a * x - f * y if y else a * x for x, y in zip(v, row)]
            else:
                v = [(x - f * y) % p for x, y in zip(v, row)]
    if extend:
        for lead, a in enumerate(v):
            if a:
                break
        else:  # zero, or empty: nothing to append
            return v
        if a != 1:  # an int row led by 1 already is primitive
            if p is not None:
                inv = pow(a, -1, p)
                v = [x * inv % p for x in v]
            else:  # primitive, leading entry positive
                g = gcd(*v) if a > 0 else -gcd(*v)
                v = [x // g for x in v]
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
    if p is None:
        reduced = unit_rows(reduced, pivots)
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
    """Inverse of a square matrix of raw values (see rref), or None when
    singular; ValueError when the matrix is not square.

    No library code calls it: it is the tests' reference inverse, which
    snf.int_matrix_inverse must agree with and the torus zero-pattern
    checks conjugate by."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    aug = [list(row) + [0] * n for row in m]
    for i in range(n):
        aug[i][n + i] = 1
    reduced, pivots = rref(aug, p)
    # [m | I] has rank n, so m is invertible iff every pivot lies in m's columns
    if pivots and pivots[-1] >= n:
        return None
    if p is None:
        reduced = unit_rows(reduced, pivots)
    return [row[n:] for row in reduced]


def _values(m: list[list[Scalar]], field: Field) -> list[list]:
    """Raw values of a Scalar matrix whose entries must all lie in `field`."""
    if any(s.field is not field and s.field != field for row in m for s in row):
        raise FieldMismatch(f"matrix over {field!r} holds scalars of another field")
    return [[s.value for s in row] for row in m]


#: the raw value types a Subspace accepts over Q and over F_p
_EXACT_Q = frozenset((int, Fraction))
_EXACT_FP = frozenset((int,))


class Subspace:
    """A subspace of F^n held in canonical echelon basis form (see rref).

    Its rows are raw values: primitive integer rows over Q (unit_rows
    gives their pivot-1 Fractions), ints in [0, p) and 1 at each pivot
    over F_p.  Vectors in may hold ints or Fractions over Q and ints over
    F_p; anything else (a bool, a float, a string) raises ValueError, as
    Field.scalar refuses it.
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
        """Residue of v after elimination against the basis rows, exactly
        v minus its combination of the pivot-1 rows: Fractions over Q."""
        self._check(v)
        p = self.field.p
        if p is not None:
            return reduce_vector(self.rows, self.pivots, [x % p for x in v], p)
        v = [Fraction(x) for x in v]
        return reduce_vector(unit_rows(self.rows, self.pivots), self.pivots, v)

    def contains(self, v: list) -> bool:
        """Whether v lies in the subspace; over Q decided on v's integer multiple."""
        self._check(v)
        p = self.field.p
        v = [x % p for x in v] if p is not None else _cleared(v)
        return not any(reduce_vector(self.rows, self.pivots, v, p))

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

    @staticmethod
    def full(field: Field, n: int) -> "Subspace":
        return Subspace(field, n, [[int(i == j) for j in range(n)] for i in range(n)])
