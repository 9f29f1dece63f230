"""Integer Smith and Hermite normal forms."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graded_leibniz import QQ, make_family, smith_normal_form, row_hnf
from graded_leibniz import gradings, linalg, snf, verification
from graded_leibniz.linalg import raw_inverse
from graded_leibniz.snf import det_int, diagonal_of, int_matrix_inverse, int_mat_mul

entries = st.integers(min_value=-9, max_value=9)


def matrices(max_side=5):
    return st.integers(min_value=1, max_value=max_side).flatmap(
        lambda m: st.integers(min_value=1, max_value=max_side).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


def minor_gcd(mat, k):
    """gcd of all k x k minors, computed straight from the definition."""
    m, n = len(mat), len(mat[0])
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            sub = [[mat[i][j] for j in cols] for i in rows]
            g = gcd(g, det_int(sub))
    return g


def test_det_known_values():
    assert det_int([[2]]) == 2
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


@given(matrices(4))
@settings(max_examples=150)
def test_det_multiplicative_on_squares(rows):
    n = min(len(rows), len(rows[0]))
    a = [row[:n] for row in rows[:n]]
    b = [row[::-1][:n] for row in rows[:n]]
    assert det_int(int_mat_mul(a, b)) == det_int(a) * det_int(b)


@given(matrices(5))
@settings(max_examples=200)
def test_snf_transform_identity(mat):
    u, d, v = smith_normal_form(mat)
    assert int_mat_mul(int_mat_mul(u, mat), v) == d
    assert det_int(u) in (1, -1)
    assert det_int(v) in (1, -1)
    m, n = len(mat), len(mat[0])
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    diag = diagonal_of(d)
    seen_zero = False
    for x in diag:
        assert x >= 0
        if x == 0:
            seen_zero = True
        else:
            assert not seen_zero  # nonzero entries precede zeros
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert b % a == 0


@given(matrices(4))
@settings(max_examples=100)
def test_snf_matches_determinantal_divisors(mat):
    _, d, _ = smith_normal_form(mat)
    diag = diagonal_of(d)
    prev = 1
    for k in range(1, min(len(mat), len(mat[0])) + 1):
        dk = minor_gcd(mat, k)
        expect = 0 if dk == 0 else dk // prev
        assert diag[k - 1] == expect
        if dk == 0:
            break
        prev = dk


def test_snf_known_examples():
    # entries gcd 2, |det| 8 -> invariant factors 2, 4
    _, d, _ = smith_normal_form([[2, 4], [6, 8]])
    assert diagonal_of(d) == [2, 4]
    # entries gcd 2, 2x2-minors gcd 4, |det| 624 -> 2, 2, 156
    _, d, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert diagonal_of(d) == [2, 2, 156]
    _, d, _ = smith_normal_form([[0, 0], [0, 0]])
    assert diagonal_of(d) == [0, 0]


@pytest.mark.parametrize("mat, diagonal", [
    ([[2, 0, 0], [0, 3, 0], [0, 0, 5]], [1, 1, 30]),
    ([[2, 0], [0, 3]], [1, 6]),  # the divisibility fix must not be undone
    ([[0, 0], [0, 3]], [3, 0]),  # a zero diagonal entry before a nonzero one
    ([[6, 0], [0, 4]], [2, 12]),
    ([[2, 0], [0, 0], [0, 3]], [1, 6]),
    ([[4, 6, 0]], [2]),
    ([[4], [6], [0]], [2]),
    ([[], []], []),
    ([[10**9 + 7, 2 * 10**9], [3, 10**9]], [1, 10**18 + 10**9]),
])
def test_snf_known_diagonals(mat, diagonal):
    u, d, v = smith_normal_form(mat)
    assert diagonal_of(d) == diagonal
    assert len(u) == len(mat) and len(v) == (len(mat[0]) if mat else 0)
    if mat[0]:
        assert int_mat_mul(int_mat_mul(u, mat), v) == d
    assert det_int(u) in (1, -1) and det_int(v) in (1, -1)


@pytest.mark.parametrize("seed", range(3))
def test_snf_terminates_on_large_sparse_entries(seed):
    rng = random.Random(seed)
    for _ in range(10):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        mat = [[rng.randint(-10**9, 10**9) if rng.random() < 0.6 else 0 for _ in range(n)]
               for _ in range(m)]
        u, d, v = smith_normal_form(mat)
        assert int_mat_mul(int_mat_mul(u, mat), v) == d
        assert det_int(u) in (1, -1) and det_int(v) in (1, -1)
        diag = [x for x in diagonal_of(d) if x]
        assert diag == diagonal_of(d)[:len(diag)] and all(x > 0 for x in diag)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        assert sum(map(bool, (x for row in d for x in row))) == len(diag)


def snf_suite_matrices():
    """The 1,000 matrices of verify-paper's snf-random-suite claim."""
    rng = random.Random(20260818)
    out = []
    for _ in range(1000):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        out.append([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    return out


def relation_matrices(monkeypatch):
    """The matrices universal_grading hands to smith_normal_form for nf, f1
    and f2 at n = 12, 16, 20 and 24 over Q."""
    seen = []

    def recording(mat):
        seen.append(mat)
        return smith_normal_form(mat)

    monkeypatch.setattr(gradings, "smith_normal_form", recording)
    for family in ("nf", "f1", "f2"):
        for n in (12, 16, 20, 24):
            gradings.universal_grading(make_family(family, n, QQ))
    assert len(seen) == 12
    return seen


def digest(mats, f):
    h = hashlib.sha256()
    for mat in mats:
        h.update(json.dumps(f(mat)).encode())
    return h.hexdigest()


#: sha256 over the matrices, in order, of the JSON of row_hnf's [H, U] and of
#: the Smith diagonal, recorded before smith_normal_form was built on the
#: Hermite loop; the Smith form's U and V are witnesses, not canonical
#: forms, so only their properties are checked
KERNEL_DIGESTS = {
    ("suite", "hnf"): "eea4e094eb04bbf059dd528cbddeda8bad4b308d3c55ed21c90d773e71f5d3a9",
    ("suite", "smith"): "c269788c8c1100b0436f4be24e6ee3dd744a690e44a76f24d69255d19f7f3977",
    ("relations", "hnf"): "1551564fe082007d2b85ecc4b17b73ebb9b90907555e28218a420111d09def2e",
    ("relations", "smith"): "7bf02cb6bc014b18c6d6f4db6a96675b555b7b3d0bdeea81b5fa99910b1f00bf",
}


@pytest.mark.parametrize("matrices, form", sorted(KERNEL_DIGESTS))
def test_integer_kernels_are_byte_identical(monkeypatch, matrices, form):
    mats = snf_suite_matrices() if matrices == "suite" else relation_matrices(monkeypatch)
    if form == "hnf":
        found = digest(mats, lambda mat: list(row_hnf(mat)))
    else:
        found = digest(mats, lambda mat: diagonal_of(smith_normal_form(mat)[1]))
    assert found == KERNEL_DIGESTS[matrices, form], f"{form} on the {matrices} matrices changed"


def test_snf_suite_fails_on_a_negative_diagonal(monkeypatch):
    """Negating D's first row and U's keeps U @ M @ V == D and U unimodular;
    only the sign check catches it."""

    def negated(mat):
        u, d, v = smith_normal_form(mat)
        return [[-x for x in u[0]]] + u[1:], [[-x for x in d[0]]] + d[1:], v

    monkeypatch.setattr(verification, "smith_normal_form", negated)
    ok, detail = verification._snf_suite()
    assert not ok and detail["reason"] == "negative diagonal entry"


@given(matrices(5))
@settings(max_examples=200)
def test_row_hnf_properties(mat):
    h, u = row_hnf(mat)
    assert det_int(u) in (1, -1)
    assert int_mat_mul(u, mat) == h
    pivots = []
    for r, row in enumerate(h):
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is None:
            continue
        assert not pivots or nz > pivots[-1][1]  # staircase
        assert row[nz] > 0
        pivots.append((r, nz))
    for r, c in pivots:
        for above, _ in pivots:
            if above < r:
                assert 0 <= h[above][c] < h[r][c]
    # zero rows sink to the bottom
    zrows = [not any(row) for row in h]
    assert zrows == sorted(zrows)


@given(matrices(4))
@settings(max_examples=100)
def test_row_hnf_is_row_lattice_invariant(mat):
    h1, _ = row_hnf(mat)
    # permuting rows and adding one to another keeps the lattice
    twisted = [row[:] for row in mat][::-1]
    if len(twisted) >= 2:
        twisted[0] = [x + 3 * y for x, y in zip(twisted[0], twisted[1])]
    h2, _ = row_hnf(twisted)
    assert h1 == h2


def test_int_matrix_inverse():
    u = [[1, 2], [0, 1]]
    assert int_matrix_inverse(u) == [[1, -2], [0, 1]]
    assert int_matrix_inverse([[2, 0], [0, 0]]) is None
    # invertible over Q only: determinants 2, 2, -2 and 21
    for mat in ([[2, 0], [0, 1]], [[3, 1], [1, 1]], [[1, 3], [1, 1]], [[1, 2, 0], [0, 1, 5], [2, 0, 1]]):
        with pytest.raises(ValueError):
            int_matrix_inverse(mat)


@pytest.mark.parametrize("seed", range(4))
def test_int_matrix_inverse_of_a_product_of_large_elementary_matrices(seed):
    """About ten elementary operations with multipliers of at least 10**6
    give a unimodular matrix with large entries; its inverse is exact."""
    rng = random.Random(seed)
    n = 5
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    m = identity
    for _ in range(10):
        i, j = rng.sample(range(n), 2)
        e = [row[:] for row in identity]
        e[i][j] = rng.choice([-1, 1]) * rng.randint(10**6, 10**7)
        if rng.random() < 0.3:
            e[i], e[j] = e[j], e[i]  # a row swap: determinant -1
        m = int_mat_mul(m, e)
    assert max(abs(x) for row in m for x in row) >= 10**6
    inv = int_matrix_inverse(m)
    assert all(type(x) is int for row in inv for x in row)
    assert int_mat_mul(m, inv) == identity and int_mat_mul(inv, m) == identity


@given(matrices(4))
@settings(max_examples=100)
def test_unimodular_witnesses_invert_exactly(mat):
    u, _, v = smith_normal_form(mat)
    for w in (u, v):
        winv = int_matrix_inverse(w)
        n = len(w)
        assert int_mat_mul(w, winv) == [[int(i == j) for j in range(n)] for i in range(n)]


@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.lists(st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=300)
def test_int_matrix_inverse_agrees_with_the_rational_inverse(mat):
    over_q = raw_inverse(mat)
    if over_q is None:
        assert int_matrix_inverse(mat) is None
    elif all(x.denominator == 1 for row in over_q for x in row):
        assert int_matrix_inverse(mat) == over_q
    else:
        with pytest.raises(ValueError):
            int_matrix_inverse(mat)


@pytest.mark.parametrize("fn", [row_hnf, smith_normal_form, det_int, int_matrix_inverse])
@pytest.mark.parametrize("mat", [
    [[1.5, 2]], [["3", 1]], [[2.7]], [[True, 0], [0, 1]], [[Fraction(1), 0], [0, 1]], [[1.5, 0], [0, 2]],
    [[1, 2], [3]],
])
def test_integer_entry_points_refuse_inexact_entries_and_ragged_rows(fn, mat):
    with pytest.raises(ValueError):
        fn(mat)


@pytest.mark.parametrize("fn", [raw_inverse, int_matrix_inverse, det_int])
@pytest.mark.parametrize("mat", [[[1, 2, 3], [0, 1, 4]], [[1, 2], [0, 1], [3, 4]], [[1, 0], [0]]])
def test_inverses_and_determinants_refuse_non_square_matrices(fn, mat):
    with pytest.raises(ValueError):
        fn(mat)


def test_snf_uses_nothing_from_linalg():
    """Every integer elimination (Smith, Hermite, inverse) runs on snf's own loop."""
    assert not [name for name, obj in vars(snf).items()
                if obj is linalg or getattr(obj, "__module__", None) == linalg.__name__]
    assert not any(obj is Fraction or getattr(obj, "__module__", None) == "fractions"
                   for obj in vars(snf).values())


# -- the integer loop against the loop it replaced -------------------------------


def reference_hnf(a, u):
    """The Hermite loop written the slow way: the pivot by min() over a list,
    each row operation through a closure."""
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


def reference_row_hnf(mat):
    a = [list(row) for row in mat]
    u = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    reference_hnf(a, u)
    return a, u


def reference_smith_normal_form(mat):
    """The alternation written the slow way: it checks for a diagonal only
    after a row pass, so a column pass that leaves one costs a row pass more."""
    a = [list(row) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    vt = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        reference_hnf(a, u)
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
        reference_hnf(at, vt)
        a = [list(row) for row in zip(*at)]


def oracle_matrices(max_side=8):
    """Matrices up to max_side x max_side: empty, zero, one row, one column,
    negative and large entries, sparse and dense."""
    shaped = st.tuples(st.integers(0, max_side), st.integers(0, max_side)).flatmap(
        lambda mn: st.lists(
            st.lists(st.one_of(st.just(0), entries, st.integers(-10**6, 10**6)),
                     min_size=mn[1], max_size=mn[1]),
            min_size=mn[0], max_size=mn[0]))
    zero = st.tuples(st.integers(1, max_side), st.integers(0, max_side)).map(
        lambda mn: [[0] * mn[1] for _ in range(mn[0])])
    one_row = st.lists(entries, min_size=1, max_size=max_side).map(lambda row: [row])
    one_column = st.lists(entries, min_size=1, max_size=max_side).map(lambda col: [[x] for x in col])
    return st.one_of(st.just([]), zero, one_row, one_column, shaped)


@given(oracle_matrices())
@settings(max_examples=400)
def test_integer_loop_is_bit_identical_to_the_reference(mat):
    assert row_hnf(mat) == reference_row_hnf(mat)
    assert smith_normal_form(mat) == reference_smith_normal_form(mat)


@given(oracle_matrices())
@settings(max_examples=300)
def test_span_is_the_nonzero_hermite_rows_with_their_pivots(mat):
    span = gradings._span([list(row) for row in mat])
    h = [row for row in row_hnf(mat)[0] if any(row)]
    assert [row for _, row in span] == h
    assert [c for c, _ in span] == [next(k for k, x in enumerate(row) if x) for row in h]
    assert all(gradings._in_span(span, row) for row in mat)


def test_snf_suite_matrices_are_bit_identical_to_the_reference():
    """Criterion 10's own matrices, the transforms U and V as well as D."""
    for mat in snf_suite_matrices():
        assert smith_normal_form(mat) == reference_smith_normal_form(mat)
