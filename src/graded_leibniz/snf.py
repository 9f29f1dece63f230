"""Smith and Hermite normal forms over the integers.

Arbitrary-precision throughout.  One elimination loop, `_hnf`, brings
rows to Hermite form; `row_hnf` returns its result with the row
transform U (H == U @ M), and `smith_normal_form` alternates it over
rows and columns, returning unimodular witnesses with U @ M @ V == D.
"""

from __future__ import annotations

from .linalg import raw_inverse


def int_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def det_int(mat: list[list[int]]) -> int:
    """Exact integer determinant via fraction-free (Bareiss) elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _hnf(a: list[list[int]], u: list[list[int]]) -> None:
    """Bring the rows of `a` to Hermite normal form in place, applying
    every row operation to `u` as well."""
    m = len(a)
    n = len(a[0]) if m else 0

    def row_op(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    r = 0
    for c in range(n):
        # gcd-reduce column c among rows r..m-1
        while True:
            nz = [(abs(a[i][c]), i) for i in range(r, m) if a[i][c]]
            if not nz:
                break
            best = min(nz)[1]
            if best != r:
                a[r], a[best] = a[best], a[r]
                u[r], u[best] = u[best], u[r]
            done = True
            for i in range(r + 1, m):
                if a[i][c]:
                    row_op(i, r, a[i][c] // a[r][c])
                    if a[i][c]:
                        done = False
            if done:
                break
        if r < m and a[r][c]:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    row_op(i, r, q)
            r += 1
            if r == m:
                break


def row_hnf(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Canonical row Hermite normal form; returns (H, U) with H == U @ mat.

    Pivots are positive, entries above a pivot lie in [0, pivot), zero
    rows sink to the bottom.  H is the canonical representative of the
    row lattice, so two matrices have equal H iff one is a unimodular
    row transform of the other.
    """
    a = [list(map(int, row)) for row in mat]
    u = int_identity(len(a))
    _hnf(a, u)
    return a, u


def smith_normal_form(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, D, V) with U @ mat @ V == D, U and V unimodular.

    D is diagonal with nonnegative entries d_1 | d_2 | ... (invariant
    factors first, then zeros).  Kannan and Bachem's alternation (SIAM
    J. Comput. 8, 1979): Hermite-reduce the rows, then the columns as the
    rows of the transpose, until the rows come out diagonal.  Where some
    d_i does not divide a later d_j, adding row j into row i puts their
    gcd within reach of the next column pass.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [list(map(int, row)) for row in mat]
    u = int_identity(m)
    vt = int_identity(n)
    while True:
        _hnf(a, u)
        if not any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            d = [x for x in diagonal_of(a) if x]
            bad = next(((i, j) for i in range(len(d)) for j in range(i + 1, len(d))
                        if d[j] % d[i]), None)
            if bad is None:
                return u, a, [list(row) for row in zip(*vt)]
            i, j = bad  # a row pass next would undo this; the column pass does not
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            u[i] = [x + y for x, y in zip(u[i], u[j])]
        at = [list(col) for col in zip(*a)]
        _hnf(at, vt)
        a = [list(row) for row in zip(*at)]


def diagonal_of(d: list[list[int]]) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def int_matrix_inverse(mat: list[list[int]]) -> list[list[int]] | None:
    """Exact inverse of an integer matrix with determinant +-1.

    Returns None when the matrix is singular; raises ValueError when it
    is invertible over the rationals but not over the integers.
    """
    out = raw_inverse(mat)
    if out is None:
        return None
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("matrix is not invertible over the integers")
    return [[int(x) for x in row] for row in out]
