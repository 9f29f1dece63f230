"""Row reduction, kernels, affine solutions, inverses, canonical subspaces."""

import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graded_leibniz import Field, QQ, Subspace
from graded_leibniz.linalg import affine_solve, raw_inverse, reduce_vector, rref
from graded_leibniz.snf import det_int, int_mat_mul

F5 = Field(5)
FIELDS = st.sampled_from([None, 2, 3, 5, 7])


def small_int_matrix():
    entry = st.integers(min_value=-9, max_value=9)
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.integers(min_value=1, max_value=4).flatmap(
            lambda m: st.lists(
                st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n
            )
        )
    )


def test_invert_known_matrix():
    assert raw_inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    assert raw_inverse([[2, 1], [1, 1]], 5) == [[1, 4], [4, 2]]


def test_invert_singular_returns_none():
    assert raw_inverse([[1, 2], [2, 4]]) is None
    assert raw_inverse([[1, 2], [2, 4]], 5) is None


@given(small_int_matrix(), st.sampled_from([None, 5]))
def test_rref_is_idempotent(m, p):
    reduced, pivots = rref(m, p)
    again, pivots2 = rref(reduced, p)
    assert reduced == again and pivots == pivots2


@given(small_int_matrix())
def test_kernel_vectors_annihilate(m):
    ncols = len(m[0])
    _, basis = affine_solve([row + [0] for row in m], ncols)
    rank = len(rref(m)[0])
    assert len(basis) == ncols - rank  # rank-nullity
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)


@given(small_int_matrix().filter(lambda m: len(m) == len(m[0])))
def test_invert_round_trip(m):
    inv = raw_inverse(m, 5)
    if inv is not None:
        n = len(m)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert [[x % 5 for x in row] for row in int_mat_mul(m, inv)] == identity
        assert [[x % 5 for x in row] for row in int_mat_mul(inv, m)] == identity


def test_subspace_equality_is_basis_independent():
    a = Subspace(QQ, 3, [[1, 0, 1], [0, 1, 1]])
    b = Subspace(QQ, 3, [[1, 1, 2], [1, -1, 0]])
    assert a == b and a.dim == 2


def test_subspace_contains_and_reduce():
    s = Subspace(QQ, 3, [[1, 0, 1]])
    assert s.contains([2, 0, Fraction(2)])
    assert not s.contains([0, 1, 0])
    assert s.reduce([3, 1, 0]) == [0, 1, -3]


def test_subspace_full_zero():
    assert Subspace.full(QQ, 4).dim == 4
    z = Subspace(QQ, 4, [])
    assert z.dim == 0 and z.is_zero()
    assert z.contains([0] * 4)


def test_subspace_rows_are_raw_values():
    s = Subspace(QQ, 2, [[2, 1]])
    assert s.rows == [[1, Fraction(1, 2)]] and all(type(x) is Fraction for x in s.rows[0])
    t = Subspace(F5, 2, [[2, 1], [4, 2]])
    assert t.rows == [[1, 3]] and all(type(x) is int for x in t.rows[0])
    assert t.contains([-1, 2]) and t.reduce([0, 7]) == [0, 2]


def test_vector_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Subspace(QQ, 3, [[1, 0]])


@pytest.mark.parametrize(
    "field,vector",
    [
        (QQ, ["1/2", 1]),
        (QQ, [1, True]),
        (QQ, [0.1]),
        (F5, [True, 1]),
        (F5, [2.5]),
        (F5, [Fraction(1, 2)]),
    ],
    ids=["Q-str", "Q-bool", "Q-float", "F5-bool", "F5-float", "F5-fraction"],
)
def test_subspace_refuses_what_field_scalar_refuses(field, vector):
    # a string or bool once reduced as if exact, and a float's binary
    # expansion was reduced as a Fraction
    with pytest.raises(ValueError):
        Subspace(field, len(vector), [vector])
    # reduce and contains took them too: over F5, contains([0, 5.0]) was
    # true by float arithmetic
    space = Subspace(field, len(vector), [[1] + [0] * (len(vector) - 1)])
    with pytest.raises(ValueError):
        space.reduce(vector)
    with pytest.raises(ValueError):
        space.contains(vector)


def test_subspace_takes_ints_and_fractions_over_q_and_ints_over_fp():
    assert Subspace(QQ, 2, [[2, Fraction(1, 2)]]).rows == [[1, Fraction(1, 4)]]
    assert Subspace(F5, 2, [[2, -1]]).rows == [[1, 2]]


# -- the raw row reduction kernel ----------------------------------------------


square_int_matrix = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)


@given(square_int_matrix, st.sampled_from([2, 3, 5, 7]))
def test_kernel_inverse_mod_p(m, p):
    inv = raw_inverse(m, p)
    assert (inv is None) == (det_int(m) % p == 0)
    if inv is not None:
        n = len(m)
        product = [[x % p for x in row] for row in int_mat_mul(m, inv)]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)]


@given(square_int_matrix)
def test_kernel_inverse_over_q_is_exact(m):
    inv = raw_inverse(m)
    assert (inv is None) == (det_int(m) == 0)
    if inv is not None:
        n = len(m)
        assert all(type(x) is Fraction for row in inv for x in row)
        assert int_mat_mul(m, inv) == [[int(i == j) for j in range(n)] for i in range(n)]
    reduced, _ = rref(m)
    assert all(type(x) is Fraction for row in reduced for x in row)


def test_rref_skips_a_column_without_pivot():
    singular = [[0, 1], [0, 1]]
    assert rref(singular, 5) == ([[0, 1]], [1])
    assert rref([], 5) == ([], [])


def rows_with_repeats():
    """Up to eight rows of length at most 4, drawn from a few distinct rows
    and the zero row, so zero and duplicate rows are common."""
    entry = st.integers(min_value=-4, max_value=4)
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4)
        .flatmap(lambda pool: st.lists(st.sampled_from(pool + [[0] * n]), max_size=8))
    )


def minor_rank(rows, p):
    """Size of the largest square submatrix with nonzero determinant (mod p)."""
    ncols = len(rows[0]) if rows else 0
    for k in range(min(len(rows), ncols), 0, -1):
        for rs in itertools.combinations(rows, k):
            for cs in itertools.combinations(range(ncols), k):
                det = det_int([[row[c] for c in cs] for row in rs])
                if (det if p is None else det % p):
                    return k
    return 0


def assert_reduced(out, pivots):
    """out is in RREF with these pivots: each row is 1 at its pivot, its
    first nonzero entry, and every other row is 0 there."""
    assert len(out) == len(pivots)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for t, (row, c) in enumerate(zip(out, pivots)):
        assert row[c] == 1 and not any(row[:c])
        assert all(other[c] == 0 for s, other in enumerate(out) if s != t)


@given(rows_with_repeats(), FIELDS)
def test_rref_is_reduced_spans_its_input_and_has_the_minor_rank(rows, p):
    out, pivots = rref(rows, p)
    if p is None:
        assert all(type(x) is Fraction for row in out for x in row)
    else:
        assert all(type(x) is int and 0 <= x < p for row in out for x in row)
    assert_reduced(out, pivots)
    # each input row is the combination of the output rows read off at the pivots
    for w in rows:
        combo = [sum(w[c] * row[j] for row, c in zip(out, pivots)) for j in range(len(w))]
        assert combo == w if p is None else [x % p for x in combo] == [x % p for x in w]
    assert len(out) == minor_rank(rows, p)


#: an int or a non-integral Fraction: denominators up to 12, numerators up to 10**9
RATIONAL = st.one_of(
    st.integers(-3, 3), st.integers(-10**9, 10**9),
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(2, 12))
    .filter(lambda x: x.denominator != 1),
)
FACTOR = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-7, 12)])


def rational_rows():
    """Up to eight rows of length at most 5 mixing ints and non-integral
    Fractions: rational multiples of a few distinct rows and the zero row,
    so zero, duplicate and dependent rows are common."""
    def multiples(n, pool):
        row = st.tuples(st.sampled_from(pool + [[0] * n]), FACTOR).map(
            lambda rf: [x * rf[1] for x in rf[0]])
        return st.lists(row, max_size=8)

    return st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(st.lists(RATIONAL, min_size=n, max_size=n), min_size=1, max_size=4)
        .flatmap(lambda pool: multiples(n, pool))
    )


def rational_square_matrix():
    """n x n with n at most 5 of RATIONAL entries; about half the time the
    last row is a rational multiple of the first, so the matrix is singular."""
    def make(m, dependent, f):
        if dependent and len(m) > 1:
            m[-1] = [x * f for x in m[0]]
        return m

    return st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.builds(make, st.lists(st.lists(RATIONAL, min_size=n, max_size=n),
                                           min_size=n, max_size=n),
                            st.booleans(), FACTOR))


def cleared(rows):
    """Each row times the lcm of its denominators: integer rows of the same rank."""
    out = []
    for row in rows:
        d = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(x * d) for x in row])
    return out


@given(rational_rows())
def test_rref_over_q_of_rational_rows_is_reduced_spans_and_has_the_minor_rank(rows):
    out, pivots = rref(rows)
    assert all(type(x) is Fraction for row in out for x in row)
    assert_reduced(out, pivots)
    for w in rows:
        assert [sum(w[c] * row[j] for row, c in zip(out, pivots)) for j in range(len(w))] == w
    assert len(out) == minor_rank(cleared(rows), None)


@given(rational_square_matrix())
def test_raw_inverse_over_q_of_rational_matrices_round_trips(m):
    inv = raw_inverse(m)
    assert (inv is None) == (det_int(cleared(m)) == 0)
    if inv is not None:
        n = len(m)
        assert all(type(x) is Fraction for row in inv for x in row)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert int_mat_mul(m, inv) == identity and int_mat_mul(inv, m) == identity


def test_subspace_reduce_returns_v_minus_its_pivot_combination():
    s = Subspace(QQ, 3, [[2, 1, 0], [0, 3, 1]])
    assert s.rows == [[1, 0, Fraction(-1, 6)], [0, 1, Fraction(1, 3)]]
    for v in ([1, 1, 1], [Fraction(1, 2), 2, 0], [0, 0, 7]):
        residue = s.reduce(v)
        exact = [x - sum(v[c] * row[j] for row, c in zip(s.rows, s.pivots))
                 for j, x in enumerate(v)]
        assert residue == exact
    assert s.reduce([1, 1, 1]) == [0, 0, Fraction(5, 6)]
    assert s.reduce([Fraction(1, 2), 2, 0]) == [0, 0, Fraction(-7, 12)]


def test_reduce_vector_extends_by_primitive_int_rows():
    rows, pivots = [], []
    assert reduce_vector(rows, pivots, [0, -4, 6, 10], extend=True) == [0, 2, -3, -5]
    # against a row with pivot entry 2: 2*v - 1*row, content 1
    assert reduce_vector(rows, pivots, [0, 1, 1, 1], extend=True) == [0, 0, 5, 7]
    # 5*v + 10*row = [0, 0, 0, 90], divided by its content 90
    assert reduce_vector(rows, pivots, [0, 0, -10, 4], extend=True) == [0, 0, 0, 1]
    assert rows == [[0, 2, -3, -5], [0, 0, 5, 7], [0, 0, 0, 1]] and pivots == [1, 2, 3]
    assert all(type(x) is int for row in rows for x in row)
    assert not any(reduce_vector(rows, pivots, [0, 6, -9, -15], extend=True))
    assert len(rows) == 3


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n), max_size=6)))
def test_reduce_vector_over_q_keeps_int_rows_primitive(vectors):
    rows, pivots = [], []
    for v in vectors:
        reduce_vector(rows, pivots, list(v), extend=True)
    for t, (row, c) in enumerate(zip(rows, pivots)):
        assert all(type(x) is int for x in row)
        assert gcd(*row) == 1 and row[c] > 0 and not any(row[:c])
        assert not any(row[b] for b in pivots[:t])
    assert rref(rows) == rref(vectors)


# -- reduction against echelon rows ------------------------------------------


def vectors_and_probe():
    """(n, vectors, probe): up to five vectors of length n and one more."""
    entry = st.integers(min_value=-6, max_value=6)
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(entry, min_size=n, max_size=n), max_size=5),
            st.lists(entry, min_size=n, max_size=n),
        )
    )


def rank(rows, p):
    return len(rref(rows, p)[0])


@given(vectors_and_probe(), FIELDS)
def test_reduce_vector_agrees_with_rref_rank_and_membership(case, p):
    _, vectors, probe = case
    # raw values as rref passes them to extend: ints over Q, reduced mod p
    if p is not None:
        vectors, probe = [[x % p for x in v] for v in vectors], [x % p for x in probe]
    rows, pivots = [], []
    for k, v in enumerate(vectors, start=1):
        grew = any(reduce_vector(rows, pivots, v, p, extend=True))
        assert len(rows) == rank(vectors[:k], p)
        assert grew == (rank(vectors[:k], p) > rank(vectors[:k - 1], p))
    # the rows keep the form reduce_vector asks for, and span the vectors
    for t, (row, c) in enumerate(zip(rows, pivots)):
        assert (row[c] == 1 if p else row[c] > 0) and not any(row[b] for b in pivots[:t])
    assert rref(rows, p) == rref(vectors, p)
    # the residue is zero exactly on the span, and differs from the probe by
    # a vector of the span; over Q against rows 1 at their pivots, as
    # Subspace holds them
    if p is None:
        rows, pivots = rref(rows)
        probe = [Fraction(x) for x in probe]
    residue = reduce_vector(rows, pivots, probe, p)
    assert (not any(residue)) == (rank(vectors + [probe], p) == len(rows))
    assert rank(rows + [[x - y for x, y in zip(probe, residue)]], p) == len(rows)
    assert not any(residue[c] for c in pivots)
    assert len(rows) == len(pivots) == rank(vectors, p)  # no extend, no new row


# -- the affine solver ----------------------------------------------------------


def augmented_system(entry):
    """(ncols, rows): up to four rows of ncols coefficients and a constant."""
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(entry, min_size=n + 1, max_size=n + 1), max_size=4),
        )
    )


@given(augmented_system(st.integers(min_value=-4, max_value=4)), st.sampled_from([2, 3, 5]))
def test_affine_solve_mod_p_is_the_solution_set(system, p):
    n, rows = system
    brute = {
        x for x in itertools.product(range(p), repeat=n)
        if all(sum(a * b for a, b in zip(row, x)) % p == row[n] % p for row in rows)
    }
    solved = affine_solve(rows, n, p)
    assert (solved is None) == (not brute)
    if solved is not None:
        x0, basis = solved
        found = {
            tuple((a + sum(t * v[i] for t, v in zip(ts, basis))) % p for i, a in enumerate(x0))
            for ts in itertools.product(range(p), repeat=len(basis))
        }
        assert found == brute
        assert len(found) == p ** len(basis)  # the basis is independent


@given(augmented_system(st.integers(min_value=-9, max_value=9)))
def test_affine_solve_over_q(system):
    n, rows = system
    solved = affine_solve(rows, n)
    rank = len(rref([row[:n] for row in rows])[1])
    # consistent iff appending the constants keeps the rank
    assert (solved is None) == (len(rref(rows)[1]) > rank)
    if solved is not None:
        x0, basis = solved
        assert all(type(x) is Fraction for x in x0)
        assert all(sum(a * x for a, x in zip(row, x0)) == row[n] for row in rows)
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
        assert len(basis) == n - rank  # rank-nullity
