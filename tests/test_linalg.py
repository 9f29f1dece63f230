"""Row reduction, kernels, affine solutions, inverses, canonical subspaces."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graded_leibniz import Field, FieldMismatch, QQ, Subspace
from graded_leibniz.linalg import (
    affine_solve,
    column,
    gauss_jordan,
    identity_matrix,
    invert,
    kernel_basis,
    mat_mul,
    mat_vec,
    raw_inverse,
    rref,
    unit_vector,
    zero_vector,
)
from graded_leibniz.snf import det_int, int_mat_mul

F5 = Field(5)


def mat(field, rows):
    return [[field.scalar(x) for x in row] for row in rows]


def small_matrix(field):
    entry = st.integers(min_value=-9, max_value=9)
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.integers(min_value=1, max_value=4).flatmap(
            lambda m: st.lists(
                st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n
            )
        )
    ).map(lambda rows: mat(field, rows))


def test_unit_vector_is_one_based():
    v = unit_vector(QQ, 3, 1)
    assert [x.value for x in v] == [1, 0, 0]


def test_column_is_one_based():
    m = mat(QQ, [[1, 2], [3, 4]])
    assert [x.value for x in column(m, 2)] == [2, 4]


def test_mat_vec_shape_check():
    with pytest.raises(ValueError):
        mat_vec(mat(QQ, [[1, 2]]), [QQ.one()])


def test_invert_known_matrix():
    m = mat(QQ, [[2, 1], [1, 1]])
    inv = invert(m)
    assert mat_mul(m, inv) == identity_matrix(QQ, 2)


def test_invert_singular_returns_none():
    assert invert(mat(QQ, [[1, 2], [2, 4]])) is None
    assert invert(mat(F5, [[1, 2], [2, 4]])) is None


@given(small_matrix(F5))
def test_rref_is_idempotent(m):
    reduced, pivots = rref(m)
    again, pivots2 = rref(reduced)
    assert reduced == again and pivots == pivots2


@given(small_matrix(QQ))
def test_kernel_vectors_annihilate(m):
    ncols = len(m[0])
    basis = kernel_basis(m, QQ, ncols)
    rank = len(rref(m)[0])
    assert len(basis) == ncols - rank  # rank-nullity
    for v in basis:
        assert not any(mat_vec(m, v))


@given(small_matrix(F5).filter(lambda m: len(m) == len(m[0])))
def test_invert_round_trip(m):
    inv = invert(m)
    if inv is not None:
        n = len(m)
        assert mat_mul(m, inv) == identity_matrix(F5, n)
        assert mat_mul(inv, m) == identity_matrix(F5, n)


def test_mixed_fields_are_rejected():
    mixed = [[QQ.one(), F5.one()], [QQ.zero(), QQ.one()]]
    with pytest.raises(FieldMismatch):
        rref(mixed)
    with pytest.raises(FieldMismatch):
        invert(mixed)
    # an equal but distinct field object is the same field
    assert rref([[Field(5).one(), F5.one()]])[1] == [0]


def test_subspace_equality_is_basis_independent():
    a = Subspace(QQ, 3, mat(QQ, [[1, 0, 1], [0, 1, 1]]))
    b = Subspace(QQ, 3, mat(QQ, [[1, 1, 2], [1, -1, 0]]))
    assert a == b and a.dim == 2


def test_subspace_contains_and_reduce():
    s = Subspace(QQ, 3, mat(QQ, [[1, 0, 1]]))
    assert s.contains([QQ.scalar(2), QQ.zero(), QQ.scalar(2)])
    assert not s.contains(unit_vector(QQ, 3, 2))


def test_subspace_full_zero():
    assert Subspace.full(QQ, 4).dim == 4
    z = Subspace.zero(QQ, 4)
    assert z.dim == 0 and z.is_zero()
    assert z.contains(zero_vector(QQ, 4))


def test_basis_complement():
    small = Subspace(QQ, 3, mat(QQ, [[1, 0, 0]]))
    ext = small.basis_complement_in(Subspace.full(QQ, 3))
    assert len(ext) == 2
    assert Subspace(QQ, 3, small.rows + ext).dim == 3


def test_vector_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Subspace(QQ, 3, mat(QQ, [[1, 0]]))


# -- the raw Gauss-Jordan kernel ----------------------------------------------


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
    reduced, _ = gauss_jordan(m)
    assert all(type(x) is Fraction for row in reduced for x in row)


def test_kernel_stops_at_first_free_column_only_when_square():
    singular = [[0, 1], [0, 1]]
    assert gauss_jordan(singular, 5) == ([[0, 1]], [1])
    assert gauss_jordan([], 5) == ([], [])


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
    rank = len(gauss_jordan([row[:n] for row in rows])[1])
    # consistent iff appending the constants keeps the rank
    assert (solved is None) == (len(gauss_jordan(rows)[1]) > rank)
    if solved is not None:
        x0, basis = solved
        assert all(type(x) is Fraction for x in x0)
        assert all(sum(a * x for a, x in zip(row, x0)) == row[n] for row in rows)
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
        assert len(basis) == n - rank  # rank-nullity
