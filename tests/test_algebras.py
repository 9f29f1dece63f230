"""Structure constant algebras: families, identities, invariants."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graded_leibniz import (
    Algebra,
    DimensionTooSmall,
    FAMILIES,
    Field,
    FieldMismatch,
    QQ,
    QnOddDimension,
    UnsupportedFamily,
    LeibnizReport,
    abelian_algebra,
    center,
    check_leibniz,
    direct_sum,
    is_antisymmetric,
    lower_central_series,
    make_family,
    nilpotency_profile,
    right_annihilator,
)
from graded_leibniz.algebras import _is_zero_sum
from graded_leibniz.fields import Scalar

F3 = Field(3)


def sc_value(alg, i, j):
    return {k: c.value for k, c in alg.bracket_basis(i, j)}


def test_nf_table():
    alg = make_family("nf", 4)
    assert sc_value(alg, 1, 1) == {2: 1}
    assert sc_value(alg, 2, 1) == {3: 1}
    assert sc_value(alg, 3, 1) == {4: 1}
    assert sc_value(alg, 4, 1) == {}
    assert sc_value(alg, 1, 2) == {}


def test_f1_table():
    alg = make_family("f1", 4)
    assert sc_value(alg, 1, 1) == {}
    assert sc_value(alg, 2, 1) == {3: 1}
    assert sc_value(alg, 3, 1) == {4: 1}


def test_f2_table():
    alg = make_family("f2", 4)
    assert sc_value(alg, 1, 1) == {2: 1}
    assert sc_value(alg, 2, 1) == {3: 1}
    assert sc_value(alg, 3, 1) == {}
    assert sc_value(alg, 4, 1) == {}


def test_lie_l_table():
    alg = make_family("lie_l", 4)
    assert sc_value(alg, 2, 1) == {3: 1}
    assert sc_value(alg, 1, 2) == {3: -1}
    assert sc_value(alg, 1, 1) == {}


def test_lie_q_table():
    alg = make_family("lie_q", 6)
    assert sc_value(alg, 2, 1) == {3: 1}
    assert sc_value(alg, 1, 5) == {6: -1}
    # pairing i + j = n + 1 with alternating sign
    assert sc_value(alg, 2, 5) == {6: -1}
    assert sc_value(alg, 3, 4) == {6: 1}
    assert sc_value(alg, 4, 3) == {6: -1}
    assert sc_value(alg, 5, 2) == {6: 1}


def test_family_guards():
    with pytest.raises(UnsupportedFamily):
        make_family("nope", 4)
    with pytest.raises(DimensionTooSmall):
        make_family("nf", 1)
    with pytest.raises(QnOddDimension):
        make_family("lie_q", 5)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("field", [QQ, F3])
def test_families_satisfy_leibniz(family, field):
    for n in range(2, 8):
        if family == "lie_q" and n % 2:
            continue
        assert check_leibniz(make_family(family, n, field)).ok


def test_lie_families_antisymmetric_others_not():
    for n in (4, 6):
        assert is_antisymmetric(make_family("lie_l", n))
        assert is_antisymmetric(make_family("lie_q", n))
        assert not is_antisymmetric(make_family("nf", n))
        assert not is_antisymmetric(make_family("f1", n))
        assert not is_antisymmetric(make_family("f2", n))


def test_leibniz_violation_witness():
    # [e1,e1]=e2, [e1,e2]=e3 but [e2,e1]=0 breaks the identity
    bad = Algebra(3, QQ, {(1, 1): [(2, 1)], (1, 2): [(3, 1)]})
    rep = check_leibniz(bad)
    assert not rep.ok
    x, y, z = rep.first_violation
    assert (x, y, z) == (1, 1, 1)


def test_lcs_dimensions():
    for n in range(2, 9):
        dims = [s.dim for s in lower_central_series(make_family("nf", n))]
        assert dims == list(range(n, -1, -1))
        for family in ("f1", "f2"):
            dims = [s.dim for s in lower_central_series(make_family(family, n))]
            assert dims == [n] + list(range(n - 2, -1, -1))


def test_lcs_stabilizes_for_non_nilpotent():
    # [e1,e2]=e1: L^k = <e1> for all k >= 2
    alg = Algebra(2, QQ, {(1, 2): [(1, 1)]})
    series = lower_central_series(alg)
    assert series[-1].dim == 1 and series[-1] == series[-2]
    profile = nilpotency_profile(alg)
    assert not profile.nilpotent and profile.index is None


def test_nilpotency_profile_families():
    nf = nilpotency_profile(make_family("nf", 6))
    # maximal nilpotency index n+1; one step longer than filiform
    assert nf.nilpotent and nf.null_filiform and not nf.filiform and nf.index == 7
    f1 = nilpotency_profile(make_family("f1", 6))
    assert f1.nilpotent and f1.filiform and not f1.null_filiform and f1.index == 6
    ab = nilpotency_profile(abelian_algebra(3))
    assert ab.nilpotent and ab.index == 2 and not ab.filiform


def _raw_unit(n, i):
    return [int(k == i) for k in range(1, n + 1)]


def test_center_and_right_annihilator_nf():
    for n in range(2, 7):
        alg = make_family("nf", n)
        c = center(alg)
        assert c.dim == 1 and c.contains(_raw_unit(n, n))
        ra = right_annihilator(alg)
        assert ra.dim == n - 1
        for j in range(2, n + 1):
            assert ra.contains(_raw_unit(n, j))
        assert not ra.contains(_raw_unit(n, 1))


def test_right_annihilator_is_right_ideal_kernel():
    alg = make_family("f1", 5)
    ra = right_annihilator(alg)
    for v in ra.rows:
        for i in range(1, 6):
            assert not any(alg.raw_product(_raw_unit(5, i), v))


def test_product_bilinear_consistency():
    alg = make_family("lie_q", 4)
    x = [QQ.scalar(v) for v in (1, 2, 0, -1)]
    y = [QQ.scalar(v) for v in (0, 1, 3, 2)]
    expected = [QQ.zero()] * 4
    for i in range(1, 5):
        for j in range(1, 5):
            f = x[i - 1] * y[j - 1]
            for k, c in alg.bracket_basis(i, j):
                expected[k - 1] = expected[k - 1] + c * f
    assert alg.product(x, y) == expected


def test_direct_sum_matches_f2():
    for n in range(3, 8):
        left = make_family("nf", n - 1)
        total = direct_sum(left, abelian_algebra(1))
        assert total.same_structure(make_family("f2", n))


def test_direct_sum_field_mismatch():
    with pytest.raises(FieldMismatch):
        direct_sum(make_family("nf", 3), abelian_algebra(1, F3))


def test_same_structure_ignores_label():
    a = make_family("f2", 4)
    b = Algebra(4, QQ, dict(a.sc), label="custom")
    assert a.same_structure(b)
    assert not a.same_structure(make_family("nf", 4))


def test_algebra_json_round_trip():
    for family in FAMILIES:
        n = 4 if family != "lie_q" else 6
        for field in (QQ, Field(5)):
            alg = make_family(family, n, field)
            back = Algebra.from_json(alg.to_json())
            assert back.same_structure(alg) and back.label == alg.label
    custom = Algebra(2, QQ, {(1, 1): [(2, "1/2")]})
    doc = custom.to_json()
    assert "label" not in doc
    assert Algebra.from_json(doc).same_structure(custom)


def test_from_json_keeps_family_label_only_on_family_structure():
    doc = make_family("f1", 4, Field(5)).to_json()
    assert Algebra.from_json(doc).label == "f1"
    for label in ("nf", "lie_q", "no-such-family"):
        assert Algebra.from_json(dict(doc, label=label)).label == "custom"
    doc["sc"] = doc["sc"][1:]
    assert Algebra.from_json(doc).label == "custom"


def test_from_json_refuses_a_repeated_target():
    doc = {"dim": 2, "field": {"kind": "Q"},
           "sc": [{"i": 1, "j": 1, "terms": [{"k": 2, "c": 1}, {"k": 2, "c": -1}]}]}
    with pytest.raises(ValueError, match="repeats a target"):
        Algebra.from_json(doc)
    # distinct targets of one entry, and one target in two entries, still read
    doc["sc"] = [{"i": 1, "j": 1, "terms": [{"k": 1, "c": 1}, {"k": 2, "c": -1}]},
                 {"i": 1, "j": 2, "terms": [{"k": 2, "c": 3}]}]
    assert Algebra.from_json(doc).sc == {(1, 1): ((1, 1), (2, -1)), (1, 2): ((2, 3),)}


def test_algebra_index_validation():
    with pytest.raises(ValueError):
        Algebra(2, QQ, {(0, 1): [(2, 1)]})
    with pytest.raises(ValueError):
        Algebra(2, QQ, {(1, 1): [(3, 1)]})
    with pytest.raises(ValueError):
        Algebra(2, QQ, {(1, 1): [(0, 1)]})


def test_algebra_refuses_non_integer_dim_and_indices():
    for bad in (2.5, 2.0, True):
        with pytest.raises(ValueError):
            Algebra(bad, QQ, {})
        with pytest.raises(ValueError):
            Algebra(2, QQ, {(1, bad): [(2, 1)]})
        with pytest.raises(ValueError):
            Algebra(2, QQ, {(1, 1): [(bad, 1)]})


def test_structure_constants_cancel():
    alg = Algebra(2, QQ, {(1, 1): [(2, 1), (2, -1)]})
    assert alg.bracket_basis(1, 1) == ()


@st.composite
def random_leibniz_pair(draw):
    """A random algebra plus two random vectors over F_3."""
    n = draw(st.integers(min_value=2, max_value=4))
    sc = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if draw(st.booleans()):
                k = draw(st.integers(min_value=1, max_value=n))
                c = draw(st.integers(min_value=1, max_value=2))
                sc[(i, j)] = [(k, c)]
    vec = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    return Algebra(n, F3, sc), draw(vec), draw(vec)


@given(random_leibniz_pair())
@settings(max_examples=60)
def test_product_matches_basis_expansion(data):
    alg, xs, ys = data
    x = [F3.scalar(v) for v in xs]
    y = [F3.scalar(v) for v in ys]
    expected = [F3.zero()] * alg.dim
    for i in range(1, alg.dim + 1):
        for j in range(1, alg.dim + 1):
            f = x[i - 1] * y[j - 1]
            for k, c in alg.bracket_basis(i, j):
                expected[k - 1] = expected[k - 1] + c * f
    assert alg.product(x, y) == expected


#: constants that cancel mod p (p + 1 and -1 sum to 0 in F_p) or in Q
_CONSTANTS = {
    None: [1, -1, 2, Fraction(1, 2), "-3/2"],
    2: [1, -1, 3, 2],
    3: [1, -1, 4, 2, 3],
    5: [1, -1, 6, 4, 5, "1/2"],
}


@st.composite
def random_algebra(draw, max_dim=4):
    """An algebra of dimension at most max_dim over Q, F2, F3 or F5, sparse
    enough that the Leibniz identity often holds."""
    p = draw(st.sampled_from(sorted(_CONSTANTS, key=str)))
    field = QQ if p is None else Field(p)
    n = draw(st.integers(min_value=1, max_value=max_dim))
    index = st.integers(min_value=1, max_value=n)
    term = st.tuples(index, st.sampled_from(_CONSTANTS[p]))
    keys = draw(st.lists(st.tuples(index, index), max_size=n + 1, unique=True))
    return Algebra(n, field, {key: draw(st.lists(term, min_size=1, max_size=3)) for key in keys})


def _basis(alg):
    return [[alg.field.scalar(int(i == j)) for j in range(alg.dim)] for i in range(alg.dim)]


def reference_leibniz_violation(alg):
    """First (x, y, z) in lexicographic order with [x,[y,z]] != [[x,y],z] - [[x,z],y]."""
    e, bracket = _basis(alg), alg.product
    for x in range(alg.dim):
        for y in range(alg.dim):
            for z in range(alg.dim):
                lhs = bracket(e[x], bracket(e[y], e[z]))
                first = bracket(bracket(e[x], e[y]), e[z])
                second = bracket(bracket(e[x], e[z]), e[y])
                if lhs != [a - b for a, b in zip(first, second)]:
                    return (x + 1, y + 1, z + 1)
    return None


@given(random_algebra())
@settings(max_examples=150, deadline=None)
def test_check_leibniz_matches_definition(alg):
    report = check_leibniz(alg)
    expected = reference_leibniz_violation(alg)
    assert report.ok == (expected is None)
    assert report.first_violation == expected


def dense_check_leibniz(alg):
    """check_leibniz as it was before it skipped triples: the identity on all
    n^3 basis triples, each side a sum of rows of alg.sc."""
    sc, p, n = alg.sc, alg.field.p, alg.dim
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            xy = sc.get((x, y), ())
            for z in range(1, n + 1):
                rows = [(sc.get((x, k), ()), c) for k, c in sc.get((y, z), ())]
                rows += [(sc.get((k, z), ()), -c) for k, c in xy]
                rows += [(sc.get((k, y), ()), c) for k, c in sc.get((x, z), ())]
                if not _is_zero_sum(rows, p):
                    return LeibnizReport(False, (x, y, z))
    return LeibnizReport(True, None)


@given(random_algebra(max_dim=5))
@example(make_family("nf", 5, QQ))
@example(make_family("lie_q", 4, Field(2)))
@example(make_family("f2", 5, Field(5)))
# the first violation, (2, 1, 2), has only [x, z] = [e2, e2] stored
@example(Algebra(5, F3, {(4, 5): [(1, 1)], (2, 2): [(5, 2)], (5, 1): [(3, 1)]}))
@settings(max_examples=300, deadline=None)
def test_sparse_check_leibniz_matches_dense_loop(alg):
    assert check_leibniz(alg) == dense_check_leibniz(alg)


@given(random_algebra())
@settings(max_examples=100, deadline=None)
def test_is_antisymmetric_matches_definition(alg):
    e, bracket = _basis(alg), alg.product
    expected = all(
        bracket(u, v) == [-c for c in bracket(v, u)] for u in e for v in e
    ) and all(not any(bracket(u, u)) for u in e)
    assert is_antisymmetric(alg) == expected


@given(random_algebra())
@settings(max_examples=100, deadline=None)
def test_json_round_trip_random(alg):
    doc = json.loads(json.dumps(alg.to_json()))
    assert Algebra.from_json(doc).same_structure(alg)


@given(random_algebra())
@settings(max_examples=100, deadline=None)
def test_constants_raw_inside_scalars_outside(alg):
    # over Q a constant is an int when it is integral and a Fraction only
    # otherwise, so integer constants never pay for Fraction arithmetic
    p = alg.field.p
    for terms in alg.sc.values():
        for _, c in terms:
            if p is None:
                assert c and (type(c) is int if Fraction(c).denominator == 1
                              else type(c) is Fraction and c.denominator > 1)
            else:
                assert type(c) is int and 0 < c < p
    for i in range(1, alg.dim + 1):
        for j in range(1, alg.dim + 1):
            raw = alg.sc.get((i, j), ())
            scalars = alg.bracket_basis(i, j)
            assert [k for k, _ in scalars] == [k for k, _ in raw]
            for (_, c), (_, r) in zip(scalars, raw):
                assert isinstance(c, Scalar) and c.field == alg.field and c
                assert type(c.value) is type(r) and c.value == r


def test_scalars_over_q_hold_ints_or_fractions():
    # an int constant once made inv, / and a negative ** return floats
    # (1 / 2 is 0.5); every Scalar handed out over Q must stay exact
    custom = Algebra(3, QQ, {(1, 1): [(2, "1/2")], (2, 1): [(3, 2)], (1, 2): [(3, -3)]})
    for alg in (make_family("lie_q", 6), custom):
        n, e = alg.dim, _basis(alg)
        scalars = [c for i in range(1, n + 1) for j in range(1, n + 1)
                   for _, c in alg.bracket_basis(i, j)]
        scalars += [c for u in e for v in e for c in alg.product(u, v)]
        nonzero = [c for c in scalars if c]
        inverses = [c.inv() for c in nonzero]
        scalars += inverses + [c ** -2 for c in nonzero]
        scalars += [a / b for a in nonzero for b in nonzero]
        assert all(type(c.value) in (int, Fraction) for c in scalars)
        assert all(c * d == QQ.one() for c, d in zip(nonzero, inverses))
    assert Scalar(QQ, 2).inv().value == Fraction(1, 2)
    assert (Scalar(QQ, 3) / Scalar(QQ, 2)).value == Fraction(3, 2)
    assert (Scalar(QQ, 2) ** -3).value == Fraction(1, 8)
