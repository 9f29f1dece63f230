"""Automorphism families, exhaustive searches, tori, toral gradings."""

import gc
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graded_leibniz import (
    AbelianGroup,
    Algebra,
    BudgetExceeded,
    DimensionTooSmall,
    FAMILIES,
    Field,
    FieldMismatch,
    QQ,
    UnsupportedFamily,
    ZeroParameter,
    aut_matrix_f1,
    aut_matrix_nf,
    brute_force_aut,
    coarsen,
    default_group_menu,
    enumerate_h1_gradings,
    is_automorphism,
    make_family,
    normalizer_equals_torus,
    universal_grading,
    verify_grading,
)
from graded_leibniz.linalg import raw_inverse, rref
from graded_leibniz.snf import det_int, int_mat_mul
from graded_leibniz import torus
from graded_leibniz.torus import (
    _characteristic_subspaces,
    _coset_outside,
    _family_param_space,
    _keeps_torus_diagonal,
    _row_keeps_torus_diagonal,
    _torus_points,
    family_counts,
)

F3 = Field(3)
F5 = Field(5)


def values(m):
    return [[s.value for s in row] for row in m]


def leads_with_one(m, gens):
    """True iff, for each g in gens, the first nonzero entry of column g of m
    (row tuples) is 1: m is the automorphism of its torus coset that the
    walk keeps."""
    return all(next(filter(None, (row[g - 1] for row in m)), 0) == 1 for g in gens)


@pytest.fixture
def full_walk(monkeypatch):
    """Without a universal grading brute_force_aut has no torus to divide
    out, so it visits every automorphism: the oracle that the walk keeping
    one automorphism per torus coset is checked against."""
    monkeypatch.setattr(torus, "universal_grading", lambda alg: None)


def scal(field, rows):
    return [[field.scalar(x) for x in row] for row in rows]


# -- torus weights ------------------------------------------------------------


def torus_weights(alg):
    """The torus weights: the degrees of the universal grading, as int tuples."""
    return tuple(d.coords for d in universal_grading(alg)[1].degrees)


def test_weights_are_additive_on_products():
    """c_{ij}^k != 0 forces w_i + w_j = w_k: the defining toral property."""
    for family in ("nf", "f1"):
        for n in range(2 if family == "nf" else 3, 9):
            alg = make_family(family, n)
            weights = torus_weights(alg)
            for (i, j), terms in alg.sc.items():
                for k, _ in terms:
                    summed = tuple(a + b for a, b in zip(weights[i - 1], weights[j - 1]))
                    assert summed == weights[k - 1]


# -- parametrized automorphism matrices --------------------------------------


def test_aut_matrix_nf_diagonal_case():
    m = aut_matrix_nf(3, QQ.scalar(2), (QQ.zero(), QQ.zero()))
    assert values(m) == [[2, 0, 0], [0, 4, 0], [0, 0, 8]]


def test_aut_matrix_nf_identity():
    m = aut_matrix_nf(4, QQ.one(), (QQ.zero(),) * 3)
    assert values(m) == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_aut_matrix_nf_general_entries():
    # alpha = 1 keeps the subdiagonal pattern legible: column 1 is
    # (1, beta_{n-1}, ..., beta_1) and column i repeats it shifted
    b1, b2, b3 = (QQ.scalar(v) for v in (3, 5, 7))
    m = aut_matrix_nf(4, QQ.one(), (b1, b2, b3))
    assert values(m) == [
        [1, 0, 0, 0],
        [7, 1, 0, 0],
        [5, 7, 1, 0],
        [3, 5, 7, 1],
    ]


def test_aut_matrix_nf_rejects_bad_params():
    with pytest.raises(ZeroParameter):
        aut_matrix_nf(3, QQ.zero(), (QQ.one(), QQ.one()))
    with pytest.raises(ValueError):
        aut_matrix_nf(3, QQ.one(), (QQ.one(),))


def test_aut_matrix_f1_shape():
    a1, an = QQ.scalar(2), QQ.scalar(5)
    b = (QQ.scalar(3), QQ.scalar(4), QQ.scalar(6))
    m = aut_matrix_f1(4, a1, an, b)
    assert values(m) == [
        [2, 0, 0, 0],
        [0, 3, 0, 0],
        [0, 4, 6, 0],
        [5, 6, 8, 12],
    ]


def test_aut_matrix_f1_rejects_bad_params():
    with pytest.raises(ZeroParameter):
        aut_matrix_f1(3, QQ.zero(), QQ.one(), (QQ.one(), QQ.one()))
    with pytest.raises(ZeroParameter):
        aut_matrix_f1(3, QQ.one(), QQ.one(), (QQ.zero(), QQ.one()))
    with pytest.raises(ValueError):
        aut_matrix_f1(3, QQ.one(), QQ.one(), (QQ.one(),))


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=5),
)
@settings(max_examples=80)
def test_nf_parametrization_yields_automorphisms(n, alpha, betas):
    alg = make_family("nf", n, F5)
    m = aut_matrix_nf(n, F5.scalar(alpha), tuple(F5.scalar(b) for b in betas[: n - 1]))
    assert is_automorphism(alg, m)


@given(
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=4),
)
@settings(max_examples=80)
def test_f1_parametrization_yields_automorphisms(n, a1, an, b2, rest):
    alg = make_family("f1", n, F5)
    b = (F5.scalar(b2),) + tuple(F5.scalar(x) for x in rest[: n - 2])
    m = aut_matrix_f1(n, F5.scalar(a1), F5.scalar(an), b)
    assert is_automorphism(alg, m)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
    st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
)
@settings(max_examples=60)
def test_nf_family_closed_under_composition(a1, a2, bs1, bs2):
    n = 4
    alg = make_family("nf", n, F5)
    m1 = aut_matrix_nf(n, F5.scalar(a1), tuple(F5.scalar(b) for b in bs1))
    m2 = aut_matrix_nf(n, F5.scalar(a2), tuple(F5.scalar(b) for b in bs2))
    prod = scal(F5, int_mat_mul(values(m1), values(m2)))
    assert is_automorphism(alg, prod)
    # composition stays in the family: same first-column/diagonal shape
    assert all(prod[i - 1][j - 1].value == 0 for i in range(1, n + 1) for j in range(i + 1, n + 1))


def test_is_automorphism_rejects_wrong_diagonal():
    alg = make_family("nf", 3)
    assert not is_automorphism(alg, scal(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]))


def test_is_automorphism_rejects_singular_and_misshapen():
    alg = make_family("nf", 3)
    assert not is_automorphism(alg, scal(QQ, [[0, 0, 0], [0, 0, 0], [0, 0, 0]]))
    assert not is_automorphism(alg, scal(QQ, [[1, 0], [0, 1]]))


def reference_is_automorphism(alg, m):
    """is_automorphism on Scalars, for a matrix of small int entries: a
    determinant nonzero in the field, then M [e_i, e_j] = [M e_i, M e_j]."""
    n, field = alg.dim, alg.field
    if not field.scalar(det_int([[int(s.value) for s in row] for row in m])):
        return False
    e = [[field.scalar(int(i == j)) for j in range(n)] for i in range(n)]
    cols = [[row[i] for row in m] for i in range(n)]

    def apply(v):
        return [sum((row[k] * v[k] for k in range(n)), field.zero()) for row in m]

    return all(apply(alg.product(e[i], e[j])) == alg.product(cols[i], cols[j])
               for i in range(n) for j in range(n))


@st.composite
def algebra_and_matrix(draw):
    """A small family or abelian algebra over Q, F2, F3 or F5 and a square
    matrix over its field with entries in -2..2, often zero."""
    field = draw(st.sampled_from([QQ, Field(2), F3, F5]))
    family = draw(st.sampled_from(["nf", "f1", "f2", "lie_l", "abelian"]))
    n = draw(st.integers(min_value=1 if family == "abelian" else 2, max_value=3))
    alg = Algebra(n, field, {}) if family == "abelian" else make_family(family, n, field)
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return alg, scal(field, rows)


@given(algebra_and_matrix())
@example((make_family("nf", 2, F3), scal(F3, [[2, 0], [1, 1]])))
@example((make_family("f1", 3), scal(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 2]])))
@example((Algebra(2, F5, {}), scal(F5, [[1, 2], [2, 4]])))
# a torus point of a family with constant -1: unreduced, c * m[r][k] reads 4, not 1
@example((make_family("lie_l", 3, F3), scal(F3, [[2, 0, 0], [0, 1, 0], [0, 0, 2]])))
@settings(max_examples=150)
def test_is_automorphism_agrees_with_scalar_reference(case):
    alg, m = case
    assert is_automorphism(alg, m) == reference_is_automorphism(alg, m)


@pytest.mark.parametrize("family,n", [("nf", 2), ("nf", 3), ("nf", 4), ("f1", 3), ("f1", 4)])
def test_is_automorphism_holds_on_every_walk_result(family, n):
    alg = make_family(family, n, F3)
    report = brute_force_aut(alg)
    # all_in_family says the walk found exactly the family's matrices
    assert report.all_in_family is True
    found = _family_param_space(alg)
    assert len(found) == report.count
    assert all(is_automorphism(alg, scal(F3, m)) for m in found)


@given(algebra_and_matrix(), st.data())
@settings(max_examples=60)
def test_is_automorphism_rejects_mixed_fields(case, data):
    alg, m = case
    n = alg.dim
    other = data.draw(st.sampled_from([f for f in (QQ, Field(2), F3, F5) if f != alg.field]))
    r, c = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    m[r][c] = other.scalar(data.draw(st.integers(0, 1)))
    with pytest.raises(FieldMismatch):
        is_automorphism(alg, m)
    # an equal but distinct field object is the same field
    m[r][c] = Field(alg.field.p).one()
    is_automorphism(alg, m)


def test_torus_points_nf():
    # over F_31 the point t = 3 is diag(3, 9, 27), as over Q
    points = _torus_points(torus_weights(make_family("nf", 3, Field(31))), 31)
    assert ((3, 0, 0), (0, 9, 0), (0, 0, 27)) in points
    assert len(points) == 30


def test_torus_points_f1():
    # over F_13 the point (a, b) = (2, 3) is diag(2, 3, 6, 12), as over Q
    points = _torus_points(torus_weights(make_family("f1", 4, Field(13))), 13)
    assert ((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 6, 0), (0, 0, 0, 12)) in points
    assert len(points) == 12 * 12


@pytest.mark.parametrize(
    "family,n,p",
    [("nf", n, p) for n in range(2, 6) for p in (2, 3, 5)]
    + [("f1", n, p) for n in range(3, 6) for p in (2, 3, 5)],
)
def test_torus_points_are_the_diagonal_automorphisms(family, n, p):
    # every unit diagonal matrix, at most 4^5 = 1,024 of them
    alg = make_family(family, n, Field(p))
    diagonal_auts = set()
    for diagonal in itertools.product(range(1, p), repeat=n):
        m = tuple(tuple(x if i == j else 0 for j in range(n)) for i, x in enumerate(diagonal))
        if is_automorphism(alg, scal(alg.field, m)):
            diagonal_auts.add(m)
    assert diagonal_auts == _torus_points(torus_weights(alg), p)


# -- the family's matrix set --------------------------------------------------


def reference_family_space(alg):
    """Every family matrix over F_p as int row tuples, one aut_matrix_* call
    per parameter point: the per-point loop the affine span replaced."""
    field, p, n = alg.field, alg.field.p, alg.dim
    everything = [field.scalar(v) for v in range(p)]
    units = everything[1:]
    if alg.label == "nf":
        matrices = (aut_matrix_nf(n, alpha, betas)
                    for alpha in units
                    for betas in itertools.product(everything, repeat=n - 1))
    else:
        matrices = (aut_matrix_f1(n, a1, an, (b2,) + rest)
                    for a1 in units for b2 in units for an in everything
                    for rest in itertools.product(everything, repeat=n - 2))
    return {tuple(tuple(row) for row in values(m)) for m in matrices}


@pytest.mark.parametrize(
    "family,n,p",
    [("nf", n, p) for n in range(2, 7) for p in (2, 3, 5)]
    + [("f1", n, p) for n in range(3, 6) for p in (2, 3, 5)],
)
def test_family_space_matches_reference_loop(family, n, p):
    # nf 6 F5 and f1 5 F5 are the normalizer inputs of the benchmark
    alg = make_family(family, n, Field(p))
    assert _family_param_space(alg) == reference_family_space(alg)


# the criterion 5 sizes (nf 2..5, f1 3..5 over F3 and F5), then F2 and F7
# and n = 6; f1 6 F7 is left out, its full set has 605,052 matrices
@pytest.mark.parametrize(
    "family,n,p",
    [("nf", n, p) for n in range(2, 7) for p in (2, 3, 5, 7)]
    + [("f1", n, p) for n in range(3, 7) for p in (2, 3, 5, 7) if (n, p) != (6, 7)],
)
def test_pruned_family_space_is_the_filtered_family_space(family, n, p):
    alg = make_family(family, n, Field(p))
    weights = torus_weights(alg)
    calls = []
    pruned = _family_param_space(alg, lambda r, row: _row_keeps_torus_diagonal(row, weights), calls)
    full = _family_param_space(alg)
    assert pruned == {m for m in full if _keeps_torus_diagonal(m, weights)}
    assert len(calls) == (p - 1) ** (1 if family == "nf" else 2)


@st.composite
def row_zero_patterns(draw):
    """A small family algebra with its full matrix set, and per row a random
    subset of the zero patterns that row takes in the family."""
    family, n, p = draw(st.sampled_from(
        [("nf", 3, 3), ("nf", 4, 3), ("nf", 4, 5), ("f1", 3, 5), ("f1", 4, 3), ("f1", 5, 2)]))
    alg = make_family(family, n, Field(p))
    full = _family_param_space(alg)
    allowed = []
    for r in range(n):
        seen = sorted({tuple(bool(x) for x in m[r]) for m in full})
        allowed.append(set(draw(st.lists(st.sampled_from(seen), unique=True))))
    return alg, full, allowed


@given(row_zero_patterns())
@settings(max_examples=60, deadline=None)
def test_pruned_family_space_with_any_row_predicate(case):
    alg, full, allowed = case

    def keep(r, row):
        return tuple(bool(x) for x in row) in allowed[r]

    filtered = {m for m in full if all(keep(r, row) for r, row in enumerate(m))}
    assert _family_param_space(alg, keep) == filtered


# -- exhaustive search oracle -------------------------------------------------


def raw_scan(alg):
    """Plain-integer reference scan over all p^(n^2) matrices.

    Independent of the library's search, field classes, and linear
    algebra: determinant and product checks are done with bare ints.
    """
    p = alg.field.p
    n = alg.dim
    sc = alg.sc

    def det_mod(rows):
        a = [row[:] for row in rows]
        d = 1
        for c in range(n):
            piv = next((r for r in range(c, n) if a[r][c] % p), None)
            if piv is None:
                return 0
            if piv != c:
                a[c], a[piv] = a[piv], a[c]
                d = -d
            d = d * a[c][c] % p
            inv = pow(a[c][c], -1, p)
            for r in range(c + 1, n):
                f = a[r][c] * inv % p
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
        return d % p

    def bracket(x, y):
        out = [0] * n
        for (i, j), terms in sc.items():
            f = x[i - 1] * y[j - 1]
            for k, c in terms:
                out[k - 1] = (out[k - 1] + c * f) % p
        return out

    hits = set()
    for flat in itertools.product(range(p), repeat=n * n):
        rows = [list(flat[r * n : (r + 1) * n]) for r in range(n)]
        if det_mod(rows) == 0:
            continue
        cols = [[rows[r][c] for r in range(n)] for c in range(n)]
        ok = True
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                lhs = [0] * n
                for k, c in sc.get((i, j), ()):
                    lhs = [(x + c * y) % p for x, y in zip(lhs, cols[k - 1])]
                if lhs != bracket(cols[i - 1], cols[j - 1]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            hits.add(tuple(flat))
    return hits


@pytest.mark.parametrize(
    "family,n,p",
    [("nf", 2, 2), ("nf", 2, 3), ("nf", 2, 5), ("nf", 3, 2), ("nf", 3, 3), ("f1", 3, 2), ("f1", 3, 3)],
)
def test_brute_force_matches_raw_scan(family, n, p):
    alg = make_family(family, n, Field(p))
    report = brute_force_aut(alg)
    assert report.count == len(raw_scan(alg))
    assert report.all_in_family is True


@st.composite
def random_small_algebra(draw):
    """Random structure constants in dimension 2 over F2, F3, F5 or dimension 3
    over F2, F3: sparse enough for large automorphism groups, with brackets of
    several terms and brackets landing on their own factors."""
    n, p = draw(st.sampled_from(((2, 2), (2, 3), (2, 5), (3, 2), (3, 3))))
    index = st.integers(min_value=1, max_value=n)
    term = st.tuples(index, st.integers(min_value=1, max_value=p - 1))
    keys = draw(st.lists(st.tuples(index, index), max_size=n + 1, unique=True))
    return Algebra(n, Field(p), {key: draw(st.lists(term, min_size=1, max_size=3)) for key in keys})


@given(random_small_algebra())
@example(Algebra(2, F3, {(2, 1): [(1, 1), (2, 2)]}))
@example(Algebra(2, F5, {(1, 1): [(1, 1)], (2, 2): [(1, 2), (2, 3)]}))
@example(Algebra(3, F3, {(1, 2): [(1, 1), (3, 1)], (2, 1): [(2, 2)], (3, 3): [(3, 1)]}))
@example(Algebra(3, Field(2), {}))
# forcing constraints with c != 1: column 2 is 2^-1 [col_1, col_1]
@example(Algebra(2, F3, {(1, 1): [(2, 2)]}))
@example(Algebra(2, F5, {(1, 1): [(2, 2)]}))
# a second constraint at the forced depth, which the forced column can fail:
# at (1, 2), (2, 1) and (2, 2) in turn
@example(Algebra(2, F3, {(1, 1): [(2, 2)], (1, 2): [(2, 1)]}))
@example(Algebra(2, F3, {(1, 1): [(2, 2)], (2, 1): [(2, 1)]}))
@example(Algebra(2, F3, {(1, 1): [(2, 2)], (2, 2): [(2, 1)]}))
# the forced column (y^2, x^2) is dependent on (x, y) when x = y
@example(Algebra(2, F3, {(1, 1): [(2, 1)], (2, 2): [(1, 1)]}))
@settings(max_examples=60, deadline=None)
def test_pruned_walk_matches_raw_scan_on_random_algebras(alg):
    p, n = alg.field.p, alg.dim
    assert brute_force_aut(alg, budget=p ** (n * n)).count == len(raw_scan(alg))


@pytest.mark.parametrize("family,n,p", [("f1", 4, 5), ("f1", 5, 3), ("nf", 4, 5), ("nf", 5, 3)])
def test_brute_force_family_is_aut_at_benchmark_sizes(family, n, p):
    report = brute_force_aut(make_family(family, n, Field(p)), budget=p ** (n * n))
    # one automorphism per coset of the whole torus: e_1 generates the nf
    # grading group and e_1, e_2 that of f1
    assert (report.count, report.torus_size) == family_counts(family, n, p)
    assert report.all_in_family is True


# walk nodes before each column was confined to the characteristic subspaces
# of its basis vector: nf 4 F5 2,125, nf 5 F3 891, f1 4 F5 22,305, f1 5 F3 8,067
@pytest.mark.parametrize(
    "family,n,p,nodes",
    [("nf", 4, 5, 2_001), ("nf", 5, 3, 811), ("f1", 4, 5, 6_021), ("f1", 5, 3, 1_303)],
)
def test_walk_nodes_at_benchmark_sizes(full_walk, family, n, p, nodes):
    alg = make_family(family, n, Field(p))
    report = brute_force_aut(alg, budget=p ** (n * n))
    assert report.nodes == nodes
    # no dead ends: one call for the empty prefix, then one per distinct
    # column prefix of an automorphism, the whole matrices included
    auts = _family_param_space(alg)
    prefixes = {tuple(row[:d] for row in m) for m in auts for d in range(1, n + 1)}
    assert report.nodes == 1 + len(prefixes)


@pytest.mark.parametrize(
    "family,n,p,forced",
    [("nf", 4, 5, 1_500), ("nf", 5, 3, 648), ("f1", 4, 5, 4_000), ("f1", 5, 3, 972)],
)
def test_walk_counters_at_benchmark_sizes(full_walk, family, n, p, forced):
    # nf forces columns 2..n and f1 columns 3..n; with no dead ends there is
    # one forced column per distinct prefix ending just before a forced depth
    # and no candidate is cut
    alg = make_family(family, n, Field(p))
    report = brute_force_aut(alg, budget=p ** (n * n))
    assert (report.forced, report.pruned) == (forced, 0)
    auts = _family_param_space(alg)
    first = 2 if family == "nf" else 3
    assert report.forced == sum(len({tuple(row[:d - 1] for row in m) for m in auts})
                                for d in range(first, n + 1))


@pytest.mark.parametrize(
    "family,n,p,counts",
    [("nf", 4, 5, (500, 501, 375, 0)), ("nf", 5, 3, (162, 406, 324, 0)),
     ("f1", 4, 5, (2_000, 381, 250, 0)), ("f1", 5, 3, (324, 328, 243, 0))],
)
def test_normalized_walk_at_benchmark_sizes(family, n, p, counts):
    # the walk keeps the automorphisms whose generator columns lead with 1,
    # column 1 for nf and columns 1 and 2 for f1, and multiplies their
    # number by the torus size; it still has no dead ends and cuts nothing
    alg = make_family(family, n, Field(p))
    report = brute_force_aut(alg, budget=p ** (n * n))
    assert (report.count, report.nodes, report.forced, report.pruned) == counts
    gens = (1,) if family == "nf" else (1, 2)
    assert report.torus_size == (p - 1) ** len(gens)
    auts = {m for m in _family_param_space(alg) if leads_with_one(m, gens)}
    assert len(auts) * report.torus_size == report.count
    prefixes = {tuple(row[:d] for row in m) for m in auts for d in range(1, n + 1)}
    assert report.nodes == 1 + len(prefixes)
    first = 2 if family == "nf" else 3
    assert report.forced == sum(len({tuple(row[:d - 1] for row in m) for m in auts})
                                for d in range(first, n + 1))


def reference_coset_outside(x0, basis, avoid, p):
    """The walk's coset filter written the slow way: build the coset, then
    evaluate every equation of every avoided subspace on each vector."""
    coset = [tuple(x0)]
    for v in basis:
        coset = [tuple((a + t * b) % p for a, b in zip(x, v)) for x in coset for t in range(p)]
    return [x for x in coset
            if all(any(sum(a * b for a, b in zip(e, x)) % p for e in eqs) for eqs in avoid)]


#: the benchmark's walks and those of the aut-exhaustion claims
WALK_SIZES = [("nf", 4, 5), ("nf", 5, 3), ("f1", 4, 5), ("f1", 5, 3), ("nf", 4, 3), ("f1", 4, 3)]
WALK_SIZES += [(family, n, p) for p in (2, 3, 5) for family, n in (("nf", 2), ("nf", 3), ("f1", 3))]


@pytest.mark.parametrize("family,n,p", WALK_SIZES)
def test_coset_residues_give_the_reference_candidates(monkeypatch, family, n, p):
    """Every candidate list of the walk, in order, equals the reference filter's."""
    calls = []

    def checked(x0, basis, avoid, q):
        got = _coset_outside(x0, basis, avoid, q)
        assert got == reference_coset_outside(x0, basis, avoid, q)
        calls.append(bool(avoid))
        return got

    monkeypatch.setattr(torus, "_coset_outside", checked)
    alg = make_family(family, n, Field(p))
    report = brute_force_aut(alg, budget=p ** (n * n))
    assert report.count == family_counts(family, n, p)[0]
    assert calls and (n < 3 or any(calls))


@st.composite
def coset_and_avoided(draw):
    """x0, up to three basis vectors and up to three avoided subspaces of
    F_p^m (each one to m equation rows), p in 2, 3, 5 and m in 1..4."""
    p = draw(st.sampled_from((2, 3, 5)))
    m = draw(st.integers(min_value=1, max_value=4))
    vector = st.lists(st.integers(min_value=0, max_value=p - 1), min_size=m, max_size=m)
    x0 = draw(vector)
    basis = draw(st.lists(vector, max_size=3))
    eqs = st.lists(vector.map(tuple), min_size=1, max_size=m).map(tuple)
    return x0, basis, draw(st.lists(eqs, max_size=3)), p


@given(coset_and_avoided())
# an empty basis: the coset is x0 alone, kept and dropped
@example(([1, 2], [], [((1, 0),)], 3))
@example(([0, 2], [], [((1, 0),)], 3))
# x0 inside the avoided subspace x_1 = 0: the t_1 = 0 slice goes
@example(([0, 0, 1], [[1, 0, 0], [0, 1, 0]], [((1, 0, 0),)], 5))
# an exclusion system with no solution: x_3 = 0 is never met on x0 + t e_1
@example(([0, 0, 1], [[1, 0, 0]], [((0, 0, 1),)], 3))
# nested avoided subspaces, x_1 = x_2 = 0 within x_1 = 0, and overlapping
# ones, x_1 = 0 and x_2 = 0, over F_2
@example(([0, 0, 1], [[1, 0, 0], [0, 1, 0]], [((1, 0, 0), (0, 1, 0)), ((1, 0, 0),)], 2))
@example(([0, 0, 1], [[1, 0, 0], [0, 1, 0]], [((1, 0, 0),), ((0, 1, 0),)], 2))
# a dependent basis: positions repeat vectors, and a solved position drops
# every copy of its vector
@example(([1, 0], [[1, 1], [2, 2]], [((1, 2),)], 3))
@settings(max_examples=200, deadline=None)
def test_coset_outside_matches_reference(case):
    x0, basis, avoid, p = case
    assert _coset_outside(x0, basis, avoid, p) == reference_coset_outside(x0, basis, avoid, p)


#: (count, nodes, forced, pruned) of the walk that visits every
#: automorphism, then of the walk that visits one per torus coset and
#: multiplies by the torus size; over F2, for an algebra whose grading group
#: has torsion (dependent-forced-F3, Z_3) and for lie_q, whose constants give
#: two basis vectors one degree, so that universal_grading returns None, the
#: two are the same walk
@pytest.mark.parametrize(
    "alg,counts,normalized",
    [
        # abelian over F2: the zero first column and, under each of the 3
        # nonzero ones, the zero column and the first column again fail rank
        (Algebra(2, Field(2), {}), (6, 10, 0, 7), (6, 10, 0, 7)),
        # column 2 = (y^2, x^2) is forced under each of the 8 nonzero first
        # columns (x, y); the zero one fails rank, as do the 2 forced columns
        # with x = y, and 4 of the other 6 fail [e1, e2] = [e2, e1] = 0 or
        # [e2, e2] = e1
        (Algebra(2, F3, {(1, 1): [(2, 1)], (2, 2): [(1, 1)]}), (2, 11, 8, 7), (2, 11, 8, 7)),
        # the Lie filiform families: (p-1)^2 p^(2n-3) automorphisms; the rank
        # test cuts candidates here, and a coordinate of [e_1, e_i] = -[e_i, e_1]
        # sums two products
        (make_family("lie_l", 4, F3), (972, 7705, 6660, 4212), (972, 1945, 1665, 1053)),
        (make_family("lie_q", 4, F3), (972, 10621, 9576, 4212), (972, 10621, 9576, 4212)),
        # the benchmark's four walks, whose nodes are the column prefixes
        # test_walk_nodes_at_benchmark_sizes counts; its two normalizer
        # inputs are pinned in test_normalizer_nodes_at_benchmark_sizes
        (make_family("nf", 4, F5), (500, 2_001, 1_500, 0), (500, 501, 375, 0)),
        (make_family("nf", 5, F3), (162, 811, 648, 0), (162, 406, 324, 0)),
        (make_family("f1", 4, F5), (2_000, 6_021, 4_000, 0), (2_000, 381, 250, 0)),
        (make_family("f1", 5, F3), (324, 1_303, 972, 0), (324, 328, 243, 0)),
        # f2, whose left annihilator is its center: the right annihilator
        # cuts here, and the walk without it reaches 499 and 1,669 nodes
        (make_family("f2", 4, F3), (324, 487, 108, 0), (324, 163, 54, 0)),
        (make_family("f2", 5, F3), (972, 1_621, 486, 0), (972, 568, 243, 0)),
    ],
    ids=["abelian-F2", "dependent-forced-F3", "lie_l-4-F3", "lie_q-4-F3",
         "nf-4-F5", "nf-5-F3", "f1-4-F5", "f1-5-F3", "f2-4-F3", "f2-5-F3"],
)
def test_walk_counters_by_hand(monkeypatch, alg, counts, normalized):
    budget = alg.field.p ** (alg.dim ** 2)
    report = brute_force_aut(alg, budget=budget)
    assert (report.count, report.nodes, report.forced, report.pruned) == normalized
    with monkeypatch.context() as patch:
        patch.setattr(torus, "universal_grading", lambda alg: None)
        report = brute_force_aut(alg, budget=budget)
    assert (report.count, report.nodes, report.forced, report.pruned) == counts
    assert report.torus_size == 1


# -- characteristic subspaces -------------------------------------------------


def raw_bracket(alg, x, y):
    p, out = alg.field.p, [0] * alg.dim
    for (i, j), terms in alg.sc.items():
        for k, c in terms:
            out[k - 1] = (out[k - 1] + c * x[i - 1] * y[j - 1]) % p
    return tuple(out)


def span_of(gens, p, n):
    """The span of gens in F_p^n as a set, by closing {0} under adding multiples."""
    span = {(0,) * n}
    for g in set(gens):
        span = {tuple((a + c * b) % p for a, b in zip(v, g)) for v in span for c in range(p)}
    return span


def defined_subspaces(alg):
    """Each subspace _characteristic_subspaces names, from its definition, as the
    set of its vectors: every bracket is taken on all of F_p^n."""
    p, n = alg.field.p, alg.dim
    space = list(itertools.product(range(p), repeat=n))
    zero = (0,) * n
    out = {}
    term, k = span_of([raw_bracket(alg, x, y) for x in space for y in space], p, n), 2
    while True:
        out[f"L^{k}"] = term
        if term == {zero}:
            break
        nxt = span_of([raw_bracket(alg, x, y) for x in term for y in space], p, n)
        if nxt == term:
            break
        term, k = nxt, k + 1
    left = {x for x in space if all(raw_bracket(alg, x, y) == zero for y in space)}
    right = {x for x in space if all(raw_bracket(alg, y, x) == zero for y in space)}
    out.update({"left annihilator": left, "right annihilator": right})
    return out


@given(random_small_algebra())
# the left and the right annihilator differ: span(e1, e3) against span(e2, e3)
@example(Algebra(3, F3, {(2, 1): [(3, 1)]}))
# not nilpotent: L^2 = L^3 = span(e1)
@example(Algebra(2, F3, {(1, 1): [(1, 1)]}))
# antisymmetric: L^2 and both annihilators are span(e3)
@example(Algebra(3, F3, {(1, 2): [(3, 1)], (2, 1): [(3, 2)]}))
@example(Algebra(3, Field(2), {}))
@settings(max_examples=60, deadline=None)
def test_characteristic_subspaces_are_characteristic(alg):
    p, n = alg.field.p, alg.dim
    space = list(itertools.product(range(p), repeat=n))
    subspaces = {
        name: {x for x in space if not any(sum(a * b for a, b in zip(e, x)) % p for e in eqs)}
        for name, eqs in _characteristic_subspaces(alg).items()
    }
    assert subspaces == defined_subspaces(alg)
    # M S within S for every automorphism M; by linearity a spanning set will do
    spanned = []
    for s in set(map(frozenset, subspaces.values())):
        gens = []
        for x in sorted(s):
            if x not in span_of(gens, p, n):
                gens.append(x)
        spanned.append((s, gens))
    for flat in raw_scan(alg):
        m = [flat[r * n : (r + 1) * n] for r in range(n)]
        for s, gens in spanned:
            assert all(tuple(sum(a * b for a, b in zip(row, x)) % p for row in m) in s for x in gens)


@pytest.mark.parametrize(
    "alg,gens",
    [
        # e1 spans the center, the intersection of the left annihilator
        # span(e1, e3) and the right annihilator span(e1, e2); over F2 the
        # torus is trivial
        (Algebra(3, Field(2), {(2, 3): [(2, 1)]}), ()),
        # the mirror image: left annihilator span(e1, e2), right span(e1, e3);
        # e1 and e2 have degrees (1, 0) and (0, 1), e3 degree 0
        (Algebra(3, F3, {(3, 2): [(2, 2)]}), (1, 2)),
        # the non-abelian Lie algebra [e1, e2] = e1 = -[e2, e1]: e1 has
        # degree 1 and e2 degree 0
        (Algebra(2, F3, {(1, 2): [(1, 1)], (2, 1): [(1, 2)]}), (1,)),
    ],
    ids=["center-F2", "center-F3", "lie-F3"],
)
def test_confined_walk_has_no_dead_ends(monkeypatch, alg, gens):
    # here column d must be confined to every characteristic subspace
    # holding e_d at once for each visited prefix to extend to an automorphism,
    # in the full walk and in the one that keeps the automorphisms whose
    # columns gens lead with 1
    n = alg.dim
    hits = raw_scan(alg)

    def prefixes(auts):
        return {tuple(flat[r * n + c] for r in range(n) for c in range(d))
                for flat in auts for d in range(1, n + 1)}

    kept = [flat for flat in hits
            if leads_with_one([flat[r * n:(r + 1) * n] for r in range(n)], gens)]
    report = brute_force_aut(alg)
    assert report.count == len(hits) == len(kept) * report.torus_size
    assert report.nodes == 1 + len(prefixes(kept))
    monkeypatch.setattr(torus, "universal_grading", lambda alg: None)
    report = brute_force_aut(alg)
    assert report.count == len(hits)
    assert report.nodes == 1 + len(prefixes(hits))


def test_brute_force_counts_match_formulas():
    # (p-1) p^(n-1) for the one-generator family
    assert brute_force_aut(make_family("nf", 3, F5)).count == 100
    assert brute_force_aut(make_family("nf", 2, Field(2))).count == 2
    # (p-1)^2 p^(n-1) with the extra unit parameter
    assert brute_force_aut(make_family("f1", 3, F3)).count == 36


def test_brute_force_f2_reports_no_family():
    report = brute_force_aut(make_family("f2", 3, F3))
    assert report.all_in_family is None
    assert report.count > 0


def test_brute_force_needs_prime_field():
    with pytest.raises(FieldMismatch):
        brute_force_aut(make_family("nf", 3))
    # the count formula too: it raised a bare TypeError on p = None
    with pytest.raises(FieldMismatch):
        family_counts("nf", 3, None)


def test_searches_leave_no_reference_cycles(monkeypatch):
    # a cycle through the walk's closure kept its matrices alive after the
    # call until a gc pass; at nf 6 F5 the normalizer's span walk cuts
    # subtrees at every level
    alg = make_family("f1", 4, F3)
    gc.collect()
    gc.disable()
    try:
        brute_force_aut(alg)
        assert gc.collect() == 0
        # a walk cut by its budget frees its closure too, the full walk
        # and the one that keeps one automorphism per torus coset
        with pytest.raises(BudgetExceeded):
            brute_force_aut(alg, budget=10)
        assert gc.collect() == 0
        with monkeypatch.context() as patch:
            patch.setattr(torus, "universal_grading", lambda alg: None)
            with pytest.raises(BudgetExceeded):
                brute_force_aut(alg, budget=100)
        assert gc.collect() == 0
        normalizer_equals_torus(alg)
        assert gc.collect() == 0
        normalizer_equals_torus(make_family("nf", 6, F5))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_brute_force_budget(monkeypatch):
    # the budget gates on the nodes the walk reaches, not on the raw 5^16
    # matrices: nf 4 over F5 reaches 501, one automorphism per torus coset,
    # and is cut at the first node past it
    alg = make_family("nf", 4, F5)
    with pytest.raises(BudgetExceeded) as info:
        brute_force_aut(alg, budget=250)
    assert (info.value.required, info.value.budget) == (251, 250)
    assert brute_force_aut(alg, budget=501).nodes == 501
    with pytest.raises(BudgetExceeded) as info:
        brute_force_aut(alg, budget=500)
    assert (info.value.required, info.value.budget) == (501, 500)
    # the full walk reaches 2001
    monkeypatch.setattr(torus, "universal_grading", lambda alg: None)
    with pytest.raises(BudgetExceeded) as info:
        brute_force_aut(alg, budget=1000)
    assert (info.value.required, info.value.budget) == (1001, 1000)
    assert brute_force_aut(alg, budget=2001).nodes == 2001
    with pytest.raises(BudgetExceeded) as info:
        brute_force_aut(alg, budget=2000)
    assert (info.value.required, info.value.budget) == (2001, 2000)


def test_brute_force_budget_covers_the_family_comparison():
    # the walk over nf 2 over F101 reaches 203 nodes, but comparing its
    # automorphisms with the family builds all 100 * 101 family matrices:
    # a budget that fits the walk and not that is refused after the walk
    alg = make_family("nf", 2, Field(101))
    with pytest.raises(BudgetExceeded) as info:
        brute_force_aut(alg, budget=1000)
    assert (info.value.required, info.value.budget) == (10100, 1000)
    report = brute_force_aut(alg, budget=10100)
    assert (report.count, report.nodes, report.all_in_family) == (10100, 203, True)


@pytest.mark.parametrize("family, n", [
    (family, n) for family in FAMILIES for n in range(2, 6)
    if not (family == "lie_q" and n % 2)
])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_family_readers_agree(family, n, p):
    # every reader of the family record refuses the same algebras, and
    # |Aut| from the count formula is the number of family matrices built,
    # which is what the brute-force comparison's budget gate reads
    alg = make_family(family, n, Field(p))
    space = _family_param_space(alg)
    try:
        size, _ = family_counts(family, n, p)
    except (UnsupportedFamily, DimensionTooSmall):
        assert space is None
        with pytest.raises((UnsupportedFamily, DimensionTooSmall)):
            normalizer_equals_torus(alg)
        return
    assert space is not None and len(space) == size
    normalizer_equals_torus(alg)


# -- normalizer ---------------------------------------------------------------


def test_normalizer_nf_spec_sizes():
    rep = normalizer_equals_torus(make_family("nf", 3, F5))
    assert rep.holds and bool(rep)
    assert rep.normalizer_size == 4 and rep.torus_size == 4
    assert "family" in rep.note


def test_normalizer_f1_spec_sizes():
    rep = normalizer_equals_torus(make_family("f1", 3, F5))
    assert rep.holds
    assert rep.normalizer_size == 16 and rep.torus_size == 16


def test_normalizer_various_sizes():
    for family, n, p, expected in [
        ("nf", 4, 3, 2),
        ("nf", 5, 3, 2),
        ("f1", 4, 3, 4),
        ("f1", 5, 3, 4),
        ("nf", 6, 3, 2),
        ("nf", 7, 3, 2),
        ("f1", 6, 3, 4),
        ("nf", 6, 5, 4),
        ("nf", 7, 5, 4),
        ("f1", 6, 5, 16),
        ("f1", 7, 5, 16),
        ("nf", 6, 7, 6),
        ("nf", 7, 7, 6),
        ("f1", 6, 7, 36),
        ("f1", 7, 7, 36),
    ]:
        rep = normalizer_equals_torus(make_family(family, n, Field(p)))
        assert rep.holds and rep.normalizer_size == expected


# the normalizer inputs of the benchmark, where the span walk used to build
# all 12,500 and 10,000 family matrices, and where it took 104 and 656
# calls over every leading value before it walked one torus coset
# representative per orbit
@pytest.mark.parametrize("family,n,nodes", [("nf", 6, 26), ("f1", 5, 41)])
def test_normalizer_nodes_at_benchmark_sizes(family, n, nodes):
    rep = normalizer_equals_torus(make_family(family, n, F5))
    assert rep.holds and rep.nodes == nodes
    family_size, _ = family_counts(family, n, 5)
    assert 10 * rep.nodes < family_size


def conjugated_projectors(m, weights, p):
    """M P_w M^-1 per weight class w, as the partial products
    sum(M[i][k] Minv[k][j] : weight(k) = w) mod p."""
    minv = raw_inverse(m, p)
    n = len(m)
    return {
        w: [[sum(m[i][k] * minv[k][j] for k in range(n) if weights[k] == w) % p
             for j in range(n)] for i in range(n)]
        for w in set(weights)
    }


def is_diagonal(m):
    return all(not x for i, row in enumerate(m) for j, x in enumerate(row) if i != j)


def times_diagonal(m, t, p):
    """m t mod p for a diagonal t, both int row tuples: column j of m times t_jj."""
    return tuple(tuple(x * t[j][j] % p for j, x in enumerate(row)) for row in m)


@pytest.mark.parametrize(
    "family,n,p",
    [("nf", n, p) for n in range(2, 7) for p in (2, 3, 5)]
    + [("f1", n, p) for n in range(3, 6) for p in (2, 3, 5)],
)
def test_normalizer_walks_one_representative_per_torus_coset(family, n, p):
    alg = make_family(family, n, Field(p))
    weights = torus_weights(alg)
    full = reference_family_space(alg)
    family_torus = torus._family_torus(alg)
    assert all(is_diagonal(t) for t in family_torus)
    # F T_F = F
    assert {times_diagonal(m, t, p) for m in full for t in family_torus} == full
    # R, the matrices whose leading units (alpha; a_1 and b_2) are 1, meets
    # each coset once: (r, t) -> r t maps R x T_F one to one onto F
    leading = 1 if family == "nf" else 2
    reps = {m for m in full if all(m[i][i] == 1 for i in range(leading))}
    assert _family_param_space(alg, representatives=True) == reps
    products = {times_diagonal(r, t, p) for r in reps for t in family_torus}
    assert products == full and len(products) == len(reps) * len(family_torus)
    # the full normalizer set the walk over every leading value built is
    # the passing representatives times T_F
    passing = {m for m in full if _keeps_torus_diagonal(m, weights)}
    kept = _family_param_space(
        alg, lambda r, row: _row_keeps_torus_diagonal(row, weights), representatives=True)
    assert passing == {times_diagonal(m, t, p) for m in kept for t in family_torus}
    points = _torus_points(weights, p)
    rep = normalizer_equals_torus(alg)
    assert (rep.holds, rep.normalizer_size, rep.torus_size) == (
        passing == points, len(passing), len(points))


def test_zero_pattern_accepts_a_swap_outside_the_centralizer():
    # conjugating diag(s, t) by the swap gives diag(t, s): the swap
    # normalizes the rank-2 torus but does not centralize it
    swap, weights = [[0, 1], [1, 0]], ((1, 0), (0, 1))
    projectors = conjugated_projectors(swap, weights, 5)
    assert projectors[(1, 0)] == [[0, 0], [0, 1]]  # P_(0,1), not P_(1,0)
    assert all(is_diagonal(q) for q in projectors.values())
    assert _keeps_torus_diagonal(swap, weights)


def test_zero_pattern_rejects_f1_matrix_with_nonzero_an():
    n = 5
    one, zero = F5.one(), F5.zero()
    m = aut_matrix_f1(n, one, one, (one,) + (zero,) * (n - 2))
    assert not _keeps_torus_diagonal(values(m), torus_weights(make_family("f1", n, F5)))


@st.composite
def invertible_with_weights(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.one_of(st.just(0), st.integers(min_value=0, max_value=p - 1))
    m = []
    for _ in range(n):
        row = draw(st.lists(entry, min_size=n, max_size=n))
        # a row in the span of the rows before it gets 1 added at a column
        # without a pivot there, which takes it out of that span; rejecting
        # it instead filtered out so many draws that the health check failed
        _, pivots = rref(m + [row], p)
        if len(pivots) == len(m):
            free = next(c for c in range(n) if c not in pivots)
            row[free] = (row[free] + 1) % p
        m.append(row)
    assert raw_inverse(m, p) is not None
    weights = tuple(draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n)))
    return m, weights, p


@given(invertible_with_weights())
@settings(max_examples=100)
def test_zero_pattern_agrees_with_conjugated_projectors(case):
    m, weights, p = case
    reference = all(is_diagonal(q) for q in conjugated_projectors(m, weights, p).values())
    assert _keeps_torus_diagonal(m, weights) == reference


def test_normalizer_needs_f1_of_dimension_three():
    # f1 of dimension 2 is abelian, so its Aut is all of GL_2 and the
    # parametrized family is a proper subgroup
    with pytest.raises(DimensionTooSmall):
        normalizer_equals_torus(make_family("f1", 2, F3))
    with pytest.raises(DimensionTooSmall):
        family_counts("f1", 2, 3)
    with pytest.raises(DimensionTooSmall):
        aut_matrix_f1(2, F3.one(), F3.one(), (F3.one(),))
    # so the walk has no family to compare its 48 automorphisms with
    assert _family_param_space(make_family("f1", 2, F3)) is None


def test_normalizer_guards():
    with pytest.raises(FieldMismatch):
        normalizer_equals_torus(make_family("nf", 3))
    with pytest.raises(UnsupportedFamily):
        normalizer_equals_torus(make_family("f2", 3, F3))
    with pytest.raises(BudgetExceeded):
        normalizer_equals_torus(make_family("nf", 8, F5), budget=10)


def test_normalizer_budget_counts_walk_calls():
    # the budget gates on the calls of the pruned span walk, not on the
    # 4 * 5^7 = 312,500 family matrices: nf 8 over F5 takes 36 calls at
    # its one walked leading value
    alg = make_family("nf", 8, F5)
    assert normalizer_equals_torus(alg, budget=36).nodes == 36
    with pytest.raises(BudgetExceeded) as info:
        normalizer_equals_torus(alg, budget=35)
    assert (info.value.required, info.value.budget) == (36, 35)
    # the family's torus takes one evaluation per each of the (p-1)^r
    # leading values, so more of them than the budget is refused before
    # the walk starts
    with pytest.raises(BudgetExceeded) as info:
        normalizer_equals_torus(make_family("f1", 3, F5), budget=15)
    assert (info.value.required, info.value.budget) == (16, 15)


# -- toral gradings -----------------------------------------------------------


def toral_coarsening(alg, group, image_coords):
    """The universal grading of alg coarsened along the generator images."""
    return coarsen(universal_grading(alg)[1], group, [group.element(c) for c in image_coords])


def test_toral_coarsening_nf_parity():
    z2 = AbelianGroup(0, (2,))
    g = toral_coarsening(make_family("nf", 4), z2, ((1,),))
    assert [d.coords[0] for d in g.degrees] == [1, 0, 1, 0]
    assert verify_grading(g).ok


def test_toral_coarsening_nf_order_three():
    z3 = AbelianGroup(0, (3,))
    g = toral_coarsening(make_family("nf", 5), z3, ((1,),))
    assert [d.coords[0] for d in g.degrees] == [1, 2, 0, 1, 2]
    assert verify_grading(g).ok


def test_toral_coarsening_f1_generator_split():
    z2 = AbelianGroup(0, (2,))
    g = toral_coarsening(make_family("f1", 4), z2, ((0,), (1,)))
    assert [d.coords[0] for d in g.degrees] == [0, 1, 1, 1]
    assert verify_grading(g).ok


def test_toral_coarsening_image_count_guard():
    # f1's universal group is Z^2, so one generator image is too few
    with pytest.raises(ValueError):
        toral_coarsening(make_family("f1", 4), AbelianGroup(1), ((1,),))


@given(st.integers(min_value=3, max_value=7), st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=5))
@settings(max_examples=50)
def test_random_toral_specializations_verify(n, order, image):
    g = toral_coarsening(make_family("nf", n), AbelianGroup(0, (order,)), ((image,),))
    assert verify_grading(g).ok


def test_h1_enumeration_nf5_spec_menu():
    found = enumerate_h1_gradings(make_family("nf", 5), "e1_homog", default_group_menu(5))
    assert len(found) == 5
    partitions = {g.partition() for g in found}
    assert ((1, 2, 3, 4, 5),) in partitions  # trivial
    assert ((1,), (2,), (3,), (4,), (5,)) in partitions  # chain
    assert ((1, 3, 5), (2, 4)) in partitions  # order 2
    assert ((1, 4), (2, 5), (3,)) in partitions  # order 3
    assert ((1, 5), (2,), (3,), (4,)) in partitions  # order 4
