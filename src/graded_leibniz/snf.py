"""Smith and Hermite normal forms over the integers.

Arbitrary-precision throughout; both transforms return unimodular
witnesses so callers can verify U @ M @ V == D exactly.
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


def smith_normal_form(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, D, V) with U @ mat @ V == D, U and V unimodular.

    D is diagonal with nonnegative entries d_1 | d_2 | ... (invariant
    factors first, then zeros).
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [list(map(int, row)) for row in mat]
    u = int_identity(m)
    v = int_identity(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        # Move an entry of smallest nonzero magnitude to the pivot seat.
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])

        while True:
            # Reduce the pivot column, swapping in any smaller remainder.
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        swap_rows(i, t)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        swap_cols(j, t)
                        dirty = True
            if dirty:
                continue
            # Pivot must divide the remaining submatrix for the invariant chain.
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # add the offending row to the pivot row
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return u, a, v


def diagonal_of(d: list[list[int]]) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def row_hnf(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Canonical row Hermite normal form; returns (H, U) with H == U @ mat.

    Pivots are positive, entries above a pivot lie in [0, pivot), zero
    rows sink to the bottom.  H is the canonical representative of the
    row lattice, so two matrices have equal H iff one is a unimodular
    row transform of the other.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [list(map(int, row)) for row in mat]
    u = int_identity(m)

    def row_op(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    r = 0
    for c in range(n):
        # gcd-reduce column c among rows r..m-1
        while True:
            nz = [i for i in range(r, m) if a[i][c]]
            if not nz:
                break
            best = min(nz, key=lambda i: abs(a[i][c]))
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
                if a[i][c]:
                    row_op(i, r, a[i][c] // a[r][c])
            r += 1
            if r == m:
                break
    return a, u


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
