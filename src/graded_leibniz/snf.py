"""Smith and Hermite normal forms over the integers.

Arbitrary-precision throughout.  One elimination loop, `_hnf`, brings
rows to Hermite form; `row_hnf` returns its result with the row
transform U (H == U @ M), `smith_normal_form` alternates it over rows
and columns until either pass leaves a diagonal, returning unimodular
witnesses with U @ M @ V == D, and `int_matrix_inverse` reads the
inverse off `row_hnf`'s transform.  The public entry points take
matrices of exact ints only: `_int_rows` refuses any other entry and
ragged rows with ValueError, and the loop itself checks nothing.
"""

from __future__ import annotations

from operator import mul


def _int_rows(mat) -> list[list[int]]:
    """A fresh copy of `mat` as lists of ints; ValueError on ragged rows
    or on an entry that is not an int (a bool, a float, a string)."""
    a = [list(row) for row in mat]
    if len({len(row) for row in a}) > 1:
        raise ValueError("matrix rows differ in length")
    if {type(x) for row in a for x in row} - {int}:
        raise ValueError("integer matrix holds an entry that is not an int")
    return a


def _require_square(mat) -> None:
    if any(len(row) != len(mat) for row in mat):
        raise ValueError("matrix is not square")


def int_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def det_int(mat: list[list[int]]) -> int:
    """Exact integer determinant via fraction-free (Bareiss) elimination."""
    a = _int_rows(mat)
    _require_square(a)
    n = len(a)
    if n == 0:
        return 1
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
    every row operation to `u` as well.  Rows are swapped and replaced,
    never changed in place, so `a` may share its row lists with a caller.

    The pivot of column c is the least |entry| among rows r..m-1, the
    first such row on a tie.  Reducing the rows below it by it leaves
    remainders smaller than it, so the next pivot is the least of those,
    found while they are made."""
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for c in range(n):
        best = least = None
        for i in range(r, m):
            e = a[i][c]
            if e and (best is None or abs(e) < least):
                best, least = i, abs(e)
        if best is None:
            continue
        # gcd-reduce column c among rows r..m-1
        while best is not None:
            if best != r:
                a[r], a[best] = a[best], a[r]
                u[r], u[best] = u[best], u[r]
            ar, ur = a[r], u[r]
            p = ar[c]
            best = None
            for i in range(r + 1, m):
                e = a[i][c]
                if e:
                    q = e // p
                    ai = a[i] = [x - q * y for x, y in zip(a[i], ar)]
                    u[i] = [x - q * y for x, y in zip(u[i], ur)]
                    e = ai[c]
                    if e and (best is None or abs(e) < least):
                        best, least = i, abs(e)
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        ar, ur = a[r], u[r]
        p = ar[c]
        for i in range(r):
            q = a[i][c] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], ar)]
                u[i] = [x - q * y for x, y in zip(u[i], ur)]
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
    a = _int_rows(mat)
    u = int_identity(len(a))
    _hnf(a, u)
    return a, u


def smith_normal_form(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, D, V) with U @ mat @ V == D, U and V unimodular.

    D is diagonal with nonnegative entries d_1 | d_2 | ... (invariant
    factors first, then zeros).  Kannan and Bachem's alternation (SIAM
    J. Comput. 8, 1979): Hermite-reduce the rows, then the columns as the
    rows of the transpose, and so on, until a pass leaves a diagonal.
    Where some d_i does not divide a later d_j, adding row j into row i
    puts their gcd within reach of the next column pass.
    """
    a = _int_rows(mat)
    m = len(a)
    n = len(a[0]) if m else 0
    u = int_identity(m)
    vt = int_identity(n)
    rows_next = True
    while True:
        if rows_next:
            _hnf(a, u)
        else:
            at = [list(col) for col in zip(*a)]
            _hnf(at, vt)
            a = [list(row) for row in zip(*at)]
        rows_next = not rows_next
        if not _is_diagonal(a):
            continue
        # either pass leaves a diagonal with positive pivots ahead of the
        # zeros, on which the other pass would change nothing
        d = [x for x in diagonal_of(a) if x]
        bad = next(((i, j) for i in range(len(d)) for j in range(i + 1, len(d))
                    if d[j] % d[i]), None)
        if bad is None:
            return u, a, [list(row) for row in zip(*vt)]
        i, j = bad  # a row pass next would undo this; the column pass does not
        a[i] = [x + y for x, y in zip(a[i], a[j])]
        u[i] = [x + y for x, y in zip(u[i], u[j])]
        rows_next = False


def _is_diagonal(a: list[list[int]]) -> bool:
    return not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(a))


def diagonal_of(d: list[list[int]]) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def int_matrix_inverse(mat: list[list[int]]) -> list[list[int]] | None:
    """Exact inverse of a square integer matrix with determinant +-1.

    The row Hermite form is the identity exactly when the matrix is
    unimodular, and then the transform U is the inverse.  Returns None
    when the matrix is singular (the last Hermite row is zero); raises
    ValueError when it is invertible over the rationals but not over the
    integers, or not square.
    """
    _require_square(mat)
    h, u = row_hnf(mat)
    if h == int_identity(len(h)):
        return u
    if any(h[-1]):
        raise ValueError("matrix is not invertible over the integers")
    return None
