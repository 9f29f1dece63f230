"""Automorphism families of nf and f1 and their maximal tori.

The two families with a worked-out automorphism group are:

  nf   f(e_1) = sum c_k e_k with c_1 != 0 determines f; equivalently
       alpha = c_1 together with beta_t = alpha^(t-1) c_{n+1-t}.
  f1   f(e_1) = a_1 e_1 + a_n e_n, f(e_2) = sum_{k>=2} b_k e_k with
       a_1 b_2 != 0; the remaining images are bracket-generated.

Their maximal tori are diagonal.  The diagonal automorphisms form
Hom(U, K^x), U the universal group of the grading by the standard basis
(gradings.universal_grading), and U is free for nf and f1: Z with e_i of
degree i, and Z^2 with e_1, e_2 and e_i (i >= 3) of degrees (1, 0),
(0, 1) and (i - 2, 1).  So the torus is diag(prod_k t_k^(w_ik)) over
t in (K^x)^r, w_i the degree of e_i: diag(alpha^1, ..., alpha^n) and
diag(a, b, ab, ..., a^(n-2)b).  Every toral grading is a coarsening of
the universal grading (gradings.coarsen).

The normalizer check reads only the zero pattern of each family matrix
M.  If M normalizes the torus, M T(t) M^-1 = T(sigma t) is diagonal, so
no row of M is nonzero in columns of two weight classes.  The matrices
passing this test include N(T) within the family; when they are exactly
the torus points, N(T) within the family is T.  Weights are compared as
integers, not as torus values over F_p, where they collide for small p.
The check walks one matrix per coset of the family's own torus T_F, the
diagonal family matrices: M t scales the columns of M by units, so it
keeps the zero pattern, and each coset holds exactly one M whose leading
units (alpha; a_1 and b_2) are 1.  So the passing set is T exactly when
the identity is the only representative in it and T_F is the torus read
off the weights (normalizer_equals_torus).

aut_matrix_nf(n, alpha, betas) and aut_matrix_f1(n, a1, an, b), with
b = (b_2, ..., b_n), are the only home of the family formulas, and
_FAMILIES, read through _family, of the rest: each family's torus rank,
least dimension and leading units.  The formulas are not called once per
parameter point: with the leading units fixed, every entry is affine in
the other parameters, so n calls (the origin and each unit direction)
fix the whole affine span, which _family_param_space walks on raw ints
mod p.  The exhaustive search compares its automorphisms with the span's
matrices whose generator columns lead with 1 (see below).  The
normalizer check walks the span at one leading value and builds only
the matrices passing its test: the test is row by row, so the walk tests
each row as soon as no later step can change it and cuts every matrix
below a failing row.

The exhaustive automorphism search (brute_force_aut) inverts nothing.
Its product constraints are compiled once per search into per-depth
check lists on raw ints, where a coordinate of [e_a, e_b] = 0 with one
product term c x_i y_j is the zero test x_i and y_j; only a forcing
constraint [e_a, e_b] = c e_d, which pins column d to c^-1 [col_a, col_b]
and so holds by construction, goes unevaluated, and its product terms
are compiled with c^-1 multiplied in.  It solves the constraints affine
in the next column mod p instead of scanning all p^n columns, and it
ends a prefix as soon as a column falls in the span of those before it,
since every completion is then singular.  It also confines each column
to the characteristic subspaces of its basis vector: an automorphism f
maps each of the subspaces built from the bracket alone (lower central
series terms and the two annihilators) onto itself, and f is a
bijection, so f(e_d) lies in such a subspace S exactly when e_d does
(Eick, Linear Algebra Appl. 382, 2004).  The center, their intersection,
would add no cut (see _characteristic_subspaces).  The columns a subspace
excludes from a coset are solved for once, not tested one by one, and
the walk recurses once per unforced column: the forced columns that
follow one are placed in a loop.
Every kernel comes from linalg.affine_solve, every echelon form from
linalg.rref and the rank test from linalg.reduce_vector; the series
comes from algebras, its terms already raw rows mod p.  Scalar matrices
(the family formulas, is_automorphism's argument) are read into raw
values once, by linalg._values.

The search visits one automorphism per torus coset.  The torus T =
Hom(U, K^x) of the universal grading lies in Aut, and it acts freely on
Aut by f -> f t, which scales column i by the character of deg e_i.  When
U is free of rank r and the degrees of unforced columns g_1..g_r form a
basis of U, t -> (its characters on those degrees) is a bijection onto
(K^x)^r, so each coset fT holds exactly one f whose columns g_1..g_r lead
with 1 (first nonzero coordinate 1), and |Aut| = |T| times the number of
such f.  Over F_2, for a torsion U or no universal grading, the walk
visits every automorphism (_torus_generators).
"""

from __future__ import annotations

import itertools
import math
import time
from typing import NamedTuple

from .algebras import Algebra, _annihilator_systems, lower_central_series
from .errors import (
    BudgetExceeded,
    DimensionTooSmall,
    FieldMismatch,
    UnsupportedFamily,
    ZeroParameter,
)
from .fields import Scalar
from .gradings import universal_grading, verify_grading
from .linalg import _values, affine_solve, reduce_vector, rref
from .snf import int_matrix_inverse

DEFAULT_BUDGET = 50_000_000

#: per family label: its torus rank r, the least dimension its formulas
#: hold in (f1 of dimension 2 is abelian, so its Aut is all of GL_2) and
#: at(n, lead, rest), its matrix at the r leading units (alpha; a_1 and
#: b_2) and the other n - 1 parameters (beta_1..beta_{n-1}; a_n,
#: b_3..b_n).  at looks the formulas up as module globals when it runs,
#: so a formula replaced on the module (a tracer, a test's patch) is the
#: one called
_FAMILIES = {
    "nf": (1, None, lambda n, lead, rest: aut_matrix_nf(n, lead[0], rest)),
    "f1": (2, 3, lambda n, lead, rest: aut_matrix_f1(n, lead[0], rest[0], (lead[1],) + rest[1:])),
}


def _family(label: str, n: int):
    """(torus rank, at) of the family named label in dimension n (see
    _FAMILIES); UnsupportedFamily when it has none, DimensionTooSmall
    when n is below its least dimension."""
    if label not in _FAMILIES:
        raise UnsupportedFamily(f"no automorphism family formula for {label!r}")
    rank, least, at = _FAMILIES[label]
    if least is not None and n < least:
        raise DimensionTooSmall(
            f"the {label} automorphism family needs dimension >= {least}, got {n}")
    return rank, at


def family_counts(family: str, n: int, p: int | None) -> tuple[int, int]:
    """(|Aut|, |torus|) over F_p: (p-1)^r p^(n-1) and (p-1)^r with torus rank r.

    The ranks are written out (_FAMILIES), not read off the universal
    grading, so the searches are checked against a formula they do not
    share.  A field that is not F_p raises FieldMismatch.
    """
    if p is None:
        raise FieldMismatch("the family count formula needs a prime field")
    rank, _ = _family(family, n)
    torus = (p - 1) ** rank
    return torus * p ** (n - 1), torus


# -- parametrized automorphisms -------------------------------------------


def aut_matrix_nf(n: int, alpha: Scalar, betas) -> list[list[Scalar]]:
    """Matrix (columns are images of e_1..e_n) of the nf automorphism with
    alpha invertible and betas = (beta_1, ..., beta_{n-1})."""
    if not alpha:
        raise ZeroParameter("alpha must be invertible")
    if len(betas) != n - 1:
        raise ValueError(f"expected {n - 1} beta parameters")
    field = alpha.field
    # c_1 = alpha and c_m = beta_{n+1-m} / alpha^(n-m) give f(e_1) = sum c_k e_k.
    c = [alpha] + [betas[n - m] * alpha ** (m - n) for m in range(2, n + 1)]
    zero = field.zero()
    m = [[zero] * n for _ in range(n)]
    for i in range(1, n + 1):
        lead = alpha ** (i - 1)
        for k in range(i, n + 1):
            m[k - 1][i - 1] = lead * c[k - i]
    return m


def aut_matrix_f1(n: int, a1: Scalar, an: Scalar, b) -> list[list[Scalar]]:
    """Matrix (columns are images of e_1..e_n) of the f1 automorphism with
    a1 and b[0] (= b_2) invertible and b = (b_2, ..., b_n); n >= 3."""
    _family("f1", n)
    if len(b) != n - 1:
        raise ValueError(f"expected {n - 1} b parameters")
    if not a1 or not b[0]:
        raise ZeroParameter("a_1 and b_2 must be invertible")
    field = a1.field
    zero = field.zero()
    m = [[zero] * n for _ in range(n)]
    m[0][0] = a1
    m[n - 1][0] = m[n - 1][0] + an
    for i in range(2, n + 1):
        lead = a1 ** (i - 2)
        for k in range(i, n + 1):
            m[k - 1][i - 1] = lead * b[k - i]
    return m


def is_automorphism(alg: Algebra, m: list[list[Scalar]]) -> bool:
    """True iff m (column i the image of e_i) is invertible and preserves all
    basis products: on raw values, full rank by rref, then M [e_i, e_j] =
    [M e_i, M e_j] for every pair.  Scalars of another field raise FieldMismatch.
    """
    n, p = alg.dim, alg.field.p
    if len(m) != n or any(len(row) != n for row in m):
        return False
    m = _values(m, alg.field)
    if len(rref(m, p)[0]) < n:
        return False
    cols = list(zip(*m))
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        image = [sum(c * row[k - 1] for k, c in alg.sc.get((i, j), ())) for row in m]
        if [x if p is None else x % p for x in image] != alg.raw_product(cols[i - 1], cols[j - 1]):
            return False
    return True


# -- exhaustive automorphism search ---------------------------------------


class AutSearchReport(NamedTuple):
    """count is the number of automorphisms, the torus_size of them per
    automorphism the walk found (one per torus coset, or 1 when it walked
    in full), and nodes the number of column prefixes the walk reached, the
    empty one and the leaves included, whether reached by a call or by
    placing a forced column.  forced counts the columns computed from a
    forcing constraint and pruned the candidate columns cut by the rank
    test or by a failed constraint."""

    count: int
    torus_size: int
    all_in_family: bool | None
    elapsed_ms: int
    nodes: int
    forced: int
    pruned: int


def _family_param_space(alg: Algebra, keep=None, calls: list | None = None,
                        budget: int | None = None, representatives: bool = False):
    """All (family parametrization) automorphism matrices over F_p, as
    int tuples, keyed and deduplicated by matrix.  None when _family
    refuses the algebra.  With representatives, only the leading value
    whose units are all 1 is walked: one matrix per coset of the family's
    torus (see normalizer_equals_torus).

    Once the r leading units are fixed, every entry of the family matrix
    is affine in the other n - 1 parameters: its value at the origin plus
    a combination of its steps along the unit directions.  So the family
    is evaluated there only (n calls per leading value), and span(point,
    k) walks point + sum t_j steps[j] mod p, t_j in 0..p-1 for j >= k, on
    raw ints: matrices are tuples of row tuples, and each step lists only
    the rows it changes, as (row index, delta).

    With keep, only the matrices whose every row r passes keep(r, row)
    are returned, and span prunes by it: settled[k] lists the rows
    steps[k - 1] changes and no later step does (settled[0] those no step
    changes), so on entry their values are final for every point below,
    and a failing one cuts the whole subtree.  When calls is a list,
    span's call count for each leading value is appended to it.  With
    budget, span raises BudgetExceeded(calls so far, budget) at the first
    call past it, counting over all leading values; those are evaluated
    one at a time, so none is built that the walk does not reach.
    """
    field = alg.field
    p, n = field.p, alg.dim
    try:
        rank, at = _family(alg.label, n)
    except (UnsupportedFamily, DimensionTooSmall):
        return None
    zero, one = field.zero(), field.one()
    units = [one] if representatives else [field.scalar(v) for v in range(1, p)]
    # the origin of the non-leading parameters, then each unit direction
    points = [(zero,) * (n - 1)] + [
        tuple(one if i == j else zero for i in range(n - 1)) for j in range(n - 1)
    ]
    matrices = set()
    spent = 0

    def span(point, k: int) -> None:
        nonlocal spent
        spent += 1
        if budget is not None and spent > budget:
            raise BudgetExceeded(spent, budget)
        if keep is not None:
            for r in settled[k]:
                if not keep(r, point[r]):
                    return
        if k == len(steps):
            matrices.add(point)
            return
        span(point, k + 1)
        step = steps[k]
        for _ in range(p - 1):
            rows = list(point)
            for r, delta in step:
                rows[r] = tuple([(x + y) % p for x, y in zip(rows[r], delta)])
            point = tuple(rows)
            span(point, k + 1)

    try:
        for lead in itertools.product(units, repeat=rank):
            origin, *along_units = [at(n, lead, q) for q in points]
            base = tuple(map(tuple, _values(origin, field)))
            steps = []
            for m in along_units:
                deltas = (tuple(x - y for x, y in zip(row, base_row))
                          for row, base_row in zip(_values(m, field), base))
                steps.append(tuple((r, delta) for r, delta in enumerate(deltas) if any(delta)))
            # densest step outermost, so the innermost loops rebuild fewest rows
            steps.sort(key=len, reverse=True)
            if keep is not None:
                # a row is final once the last step touching it is assigned
                last = {r: k + 1 for k, step in enumerate(steps) for r, _ in step}
                settled = [[r for r in range(n) if last.get(r, 0) == k]
                           for k in range(len(steps) + 1)]
            before = spent
            span(base, 0)
            if calls is not None:
                calls.append(spent - before)
    finally:
        # span reads itself through its closure cell; emptying the cell
        # breaks that cycle, so matrices is freed with the call, not by gc
        del span
    return matrices


def _reduced(rows, p: int) -> tuple[tuple[int, ...], ...]:
    """The reduced row echelon form of rows mod p, as a hashable canonical key."""
    return tuple(map(tuple, rref(rows, p)[0]))


def _span_equations(vectors, n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Canonical rows E with span(vectors) = {x : E x = 0 mod p}: the reduced
    basis of {y : y . v = 0 for every v}."""
    return _reduced(affine_solve([list(v) + [0] for v in vectors], n, p)[1], p)


def _characteristic_subspaces(alg: Algebra) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Subspaces of F_p^n that every automorphism of alg maps onto itself.

    Each is defined by the bracket alone, so any f with f[x, y] = [fx, fy]
    carries it onto itself: the lower central series terms L^k (k >= 2,
    listed until zero or stable), the left annihilator {x : [x, L] = 0} and
    the right annihilator {x : [L, x] = 0}.  Each subspace S is given as
    the reduced rows E of a system over F_p whose solutions are S: x in S
    iff E x = 0.

    The center, the intersection of the two annihilators, is left out: it
    cuts nothing they do not.  If e_d lies in the center it lies in both,
    so column d is already confined to their intersection; otherwise e_d
    misses one annihilator A, and avoiding A avoids the center inside it.
    An annihilator that is 0 or all of L is skipped by the walk, and then
    the center is 0 too, or equals the other annihilator.
    """
    p, n = alg.field.p, alg.dim
    # L^2, L^3, ...; a series that stabilizes ends on a repeat of its last
    # term, the non-nilpotency witness, which names nothing new
    terms = lower_central_series(alg)[1:]
    if len(terms) > 1 and terms[-1] == terms[-2]:
        terms.pop()
    out = {f"L^{k}": _span_equations(term.rows, n, p) for k, term in enumerate(terms, start=2)}
    left, right = _annihilator_systems(alg)
    out["left annihilator"] = _reduced(left, p)
    out["right annihilator"] = _reduced(right, p)
    return out


def _coset_outside(x0, basis, avoid, p: int) -> list[tuple[int, ...]]:
    """The vectors x0 + t_1 v_1 + ... + t_k v_k mod p, v_i the basis and
    t_k varying fastest, that lie in no subspace of `avoid`, each given by
    the rows E of its equations (x lies in it iff E x = 0 mod p).

    Nothing is evaluated per vector.  For each avoided subspace,
    E(x0 + sum t_i v_i) = 0 is an affine system in t, with coefficients
    e . v_i and constants -e . x0 for each row e of E; it is solved once
    (linalg.affine_solve) and the index sum t_i p^(k-i) of each solution,
    the vector's position in the coset order, is excluded.  The coset is
    built from the multiples t v_i, computed once per basis vector.
    """
    k = len(basis)
    place = [p ** (k - 1 - i) for i in range(k)]
    excluded = set()
    for eqs in avoid:
        system = [[sum(a * b for a, b in zip(e, v)) for v in basis]
                  + [-sum(a * b for a, b in zip(e, x0))] for e in eqs]
        solved = affine_solve(system, k, p)
        if solved is None:
            continue
        t0, directions = solved
        ts = [t0]
        for u in directions:
            ts = [[(a + c * b) % p for a, b in zip(t, u)] for t in ts for c in range(p)]
        excluded.update(sum(a * w for a, w in zip(t, place)) for t in ts)
    xs = [tuple(x0)]
    for v in basis:
        multiples = [[t * b for b in v] for t in range(p)]
        xs = [tuple([(a + b) % p for a, b in zip(x, m)]) for x in xs for m in multiples]
    if not excluded:
        return xs
    return [x for i, x in enumerate(xs) if i not in excluded]


def _torus_generators(alg: Algebra, unforced) -> list[int]:
    """Depths g_1..g_r among `unforced` whose degrees in the universal
    grading form a basis of its free group U = Z^r, or [] when the walk
    must visit every automorphism (see the module docstring).

    The depths are picked in order, each raising the rank of the degrees
    before it, and snf.int_matrix_inverse checks that they span U over Z,
    not only over Q.  Over F_2 the torus is trivial, and a grading that
    verify_grading refuses, a torsion or trivial U, or degrees that are no
    basis give [].
    """
    if alg.field.p == 2:
        return []
    pair = universal_grading(alg)
    if pair is None:
        return []
    group, grading = pair
    r = group.free_rank
    if group.torsion or r == 0 or not verify_grading(grading).ok:
        return []
    weights = [d.coords for d in grading.degrees]
    gens: list[int] = []
    for d in unforced:
        if len(gens) == r:
            break
        if len(rref([weights[g - 1] for g in gens + [d]])[0]) > len(gens):
            gens.append(d)
    if len(gens) < r:
        return []
    try:
        int_matrix_inverse([list(weights[g - 1]) for g in gens])
    except ValueError:  # invertible over Q only
        return []
    return gens


def brute_force_aut(alg: Algebra, budget: int = DEFAULT_BUDGET) -> AutSearchReport:
    """Count all automorphisms over F_p by a pruned walk over matrix space.

    The search walks columns left to right (column i = image of e_i),
    checking every product constraint as soon as all columns it mentions
    are placed.  The checks are compiled once per call: the structure
    constants are flattened into 0-based raw tuples, and each depth gets
    its list of constraints, each evaluated as [col_a, col_b] - sum c_k
    col_k on raw ints up to the first nonzero residue mod p.  A
    coordinate of a constraint [e_a, e_b] = 0 whose one product term is
    c x_i y_j (x = col_a, y = col_b) is tested as x_i and y_j instead:
    c lies in [1, p) and p is prime, so c x_i y_j is nonzero mod p
    exactly when both factors are.  Which coordinates take that test is
    settled when the checks are compiled.  Three prunings cut the walk;
    all are exact:

    * A constraint [e_a, e_b] = c e_d with a, b < d pins column d
      outright to c^-1 [col_a, col_b], so it holds by construction and is
      the one constraint left out of that depth's checks; every other
      constraint at depth d is still evaluated.  The column is summed
      from the bracket's product terms, each constant already multiplied
      by c^-1 when the checks are compiled.  At any other depth d
      every constraint except [e_d, e_d] is affine in column d, so only
      the coset x0 + span(basis) of that system's solutions mod p
      (linalg.affine_solve) is enumerated, not all p^n columns.  Every
      constraint at such a depth is still evaluated on each solution, so
      a coset too large can only cost time, never a wrong column.
    * M is invertible iff each column lies outside the span of the
      columns before it, so a prefix is cut as soon as its newest column
      is dependent: linalg.reduce_vector against the placed columns'
      echelon rows does not append it.  Every leaf is then invertible;
      nothing is inverted.
    * Every automorphism f maps each subspace S of
      _characteristic_subspaces onto itself, and f is a bijection, so
      f(e_d) lies in S exactly when e_d lies in f^-1(S) = S.  At an
      unforced depth d the equations of every S holding e_d join the
      column's linear system, and a solution lying in an S that does not
      hold e_d is dropped.  Those solutions are not tested one by one:
      _coset_outside solves each avoided subspace's equations on the coset
      once and drops the solutions.  Forced columns are not filtered: the
      checks and the rank test already decide them, and filtering them too
      slowed nf 4 over F_5 by a third (0.029 to 0.040 s) without saving a
      node.

    One automorphism per coset of the torus T = Hom(U, K^x) is visited
    (see the module docstring): at the depths g_1..g_r of
    _torus_generators only the candidates whose first nonzero coordinate
    is 1 are kept, and count is the number found times torus_size =
    (p-1)^r, |T| over F_p.  all_in_family compares the automorphisms found
    with the family matrices whose columns g_1..g_r lead with 1.  With no
    such depths (over F_2, a torsion or trivial U, no universal grading,
    or degrees that are no basis of U) torus_size is 1 and the same walk
    visits every automorphism.

    The walk recurses once per unforced depth.  Each candidate column
    there that passes is followed, in a loop, by the forced columns up to
    the next unforced depth, each summed, rank-tested and checked as
    above; a cut anywhere in that run returns the echelon rows to the
    prefix before the candidate.  The walk thus visits only invertible
    prefixes consistent with all prefix constraints, and its count equals
    the raw p^(n^2) scan's count; nodes counts the column prefixes it
    reached, forced the columns pinned by a forcing constraint and pruned
    the candidates cut by the rank test or by a failed constraint.  The
    budget gates on the work done, not on the raw size: the walk raises
    BudgetExceeded(nodes so far, budget) at the first node past it.  An
    algebra with few constants admits little pruning (the abelian one
    visits all of GL_n(F_p)), and the budget cuts that walk short.  The
    family comparison builds all |Aut| family matrices (family_counts), so
    after a walk that fits, BudgetExceeded(|Aut|, budget) is raised before
    any is built when they are more than the budget.
    """
    p = alg.field.p
    if p is None:
        raise FieldMismatch("exhaustive automorphism search needs a prime field")
    n = alg.dim
    start = time.monotonic()
    sc = alg.sc
    product = alg.raw_product

    by_depth: dict[int, list] = {d: [] for d in range(1, n + 1)}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            terms = sc.get((a, b), ())
            depth = max(a, b, *(k for k, _ in terms)) if terms else max(a, b)
            by_depth[depth].append((a, b, terms))

    # compiled once: into[r] lists the (i, j, c), 0-based, with c e_r a term
    # of [e_i, e_j]; a forcing constraint [e_a, e_b] = c e_d gives forced[d]
    # = (a, b, the (r, i, j, c'/c) over into), so coordinate r of column d
    # is the sum of its c'/c x_i y_j mod p, x = col_a and y = col_b
    into: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for (i, j), terms in sc.items():
        for k, c in terms:
            into[k - 1].append((i - 1, j - 1, c))
    forced: dict[int, tuple[int, int, list]] = {}
    for d in range(1, n + 1):
        for a, b, terms in by_depth[d]:
            if a < d and b < d and len(terms) == 1 and terms[0][0] == d:
                cinv = pow(terms[0][1], -1, p)
                forced[d] = (a, b, [(r, i, j, c * cinv % p)
                                    for r, prods in enumerate(into) for i, j, c in prods])
                break
    # one automorphism per torus coset: at these depths only candidates
    # leading with 1 are kept (none when the walk is full)
    gens = _torus_generators(alg, [d for d in range(1, n + 1) if d not in forced])

    # the checks at depth d are by_depth[d] less the forcing constraint,
    # which holds by construction of the forced column, each constraint with
    # the coordinates its residue can be nonzero in: all of them when it has
    # terms, else those some bracket reaches.  A coordinate of a constraint
    # without terms whose one product is c x_i y_j is nonzero mod p iff x_i
    # and y_j are (c is in [1, p) and p is prime): those go to zeros[d] as
    # (a, b, their (i, j) pairs), every other one to sums[d], summed there
    zeros: dict[int, list] = {d: [] for d in by_depth}
    sums: dict[int, list] = {d: [] for d in by_depth}
    everywhere = list(enumerate(into))
    pairs = [prods[0][:2] for prods in into if len(prods) == 1]
    rest = [(r, prods) for r, prods in everywhere if len(prods) > 1]
    for d, constraints in by_depth.items():
        for a, b, terms in constraints:
            if d in forced and (a, b) == forced[d][:2]:
                continue
            if terms:
                sums[d].append((a, b, terms, everywhere))
                continue
            if pairs:
                zeros[d].append((a, b, pairs))
            if rest:
                sums[d].append((a, b, terms, rest))

    # at each unforced depth d, column d must solve the equations of every
    # characteristic subspace holding e_d and lie in none of the others;
    # 0 and L itself say nothing an invertible column does not already meet
    confine: dict[int, list] = {d: [] for d in range(1, n + 1)}
    avoid: dict[int, list] = {d: [] for d in range(1, n + 1)}
    for eqs in dict.fromkeys(_characteristic_subspaces(alg).values()):
        if 0 < len(eqs) < n:
            for d in range(1, n + 1):
                if d not in forced:
                    if any(e[d - 1] for e in eqs):
                        avoid[d].append(eqs)
                    else:
                        confine[d].extend(eqs)

    nodes = forced_cols = pruned = 0
    found: list[tuple[tuple[int, ...], ...]] = []
    cols: list[tuple[int, ...]] = [()] * (n + 1)

    def violated(d: int) -> bool:
        """True iff some [col_a, col_b] - sum c_k col_k at depth d has a
        nonzero entry mod p.

        The one-product rows of zeros[d] are tested first, as x_i and y_j;
        then each constraint of sums[d] is summed on raw ints, coordinate by
        coordinate, returning at the first nonzero residue.
        """
        for a, b, pairs in zeros[d]:
            x, y = cols[a], cols[b]
            for i, j in pairs:
                if x[i] and y[j]:
                    return True
        for a, b, terms, rows in sums[d]:
            x, y = cols[a], cols[b]
            for r, prods in rows:
                v = 0
                for i, j, c in prods:
                    v += c * x[i] * y[j]
                for k, c in terms:
                    v -= c * cols[k][r]
                if v % p:
                    return True
        return False

    def solutions(d: int) -> list[tuple[int, ...]]:
        """All columns d satisfying the constraints at depth d that are affine in it.

        Column d is x.  A constraint [e_a, e_b] = sum c_k e_k at depth d is
        A x = rhs with A = c_d I minus the bracket with the placed factor,
        unless a = b = d, where it is quadratic and left to the checks.
        The equations of confine[d] join the system, and a solution lying
        in a subspace of avoid[d] is dropped.
        """
        rows = [list(e) + [0] for e in confine[d]]
        for a, b, terms in by_depth[d]:
            if a == b == d:
                continue
            coef = [[0] * n for _ in range(n)]
            const = [0] * n
            for k, c in terms:
                if k == d:
                    for r in range(n):
                        coef[r][r] += c
                else:
                    ck = cols[k]
                    for r in range(n):
                        const[r] += c * ck[r]
            if a == d or b == d:
                other = cols[b] if a == d else cols[a]
                for (i, j), t in sc.items():
                    f, unknown = (other[j - 1], i) if a == d else (other[i - 1], j)
                    if f:
                        for k, c in t:
                            coef[k - 1][unknown - 1] -= c * f
            else:
                const = [x - y for x, y in zip(const, product(cols[a], cols[b]))]
            rows.extend(coef[r] + [-const[r]] for r in range(n))
        solved = affine_solve(rows, n, p)
        if solved is None:
            return []
        candidates = _coset_outside(*solved, avoid[d], p)
        if d in gens:  # those whose first nonzero coordinate is 1
            return [x for x in candidates if next(filter(None, x), 0) == 1]
        return candidates

    # echelon rows of the placed columns, d - 1 of them at depth d; a column
    # that reduce_vector does not append is dependent and ends its prefix
    rows: list = []
    pivots: list[int] = []
    # after each unforced depth d, the run of forced depths that follows it,
    # then the next unforced depth (n + 1 past the last column)
    runs: dict[int, tuple[list[int], int]] = {}
    for d in range(1, n + 1):
        if d not in forced:
            e = d + 1
            while e in forced:
                e += 1
            runs[d] = (list(range(d + 1, e)), e)

    def walk(d: int) -> None:
        """Extend the placed prefix of d - 1 columns: d is unforced, or n + 1.

        Each candidate for column d that passes is followed by its run of
        forced columns, placed here in a loop; every prefix reached counts
        as a node, this call's and each forced column's.  After each
        candidate, cut or not, the echelon rows go back to the d - 1 of
        the placed prefix.
        """
        nonlocal nodes, forced_cols, pruned
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(nodes, budget)
        if d > n:
            found.append(tuple(zip(*cols[1:])))
            return
        run, after = runs[d]
        for col in solutions(d):
            reduce_vector(rows, pivots, col, p, extend=True)
            if len(rows) < d:
                pruned += 1
                continue
            cols[d] = col
            if violated(d):
                pruned += 1
            else:
                for e in run:
                    nodes += 1
                    if nodes > budget:
                        raise BudgetExceeded(nodes, budget)
                    forced_cols += 1
                    a, b, scaled = forced[e]
                    x, y = cols[a], cols[b]
                    image = [0] * n
                    for r, i, j, c in scaled:
                        image[r] += c * x[i] * y[j]
                    image = tuple([v % p for v in image])
                    reduce_vector(rows, pivots, image, p, extend=True)
                    if len(rows) < e:
                        pruned += 1
                        break
                    cols[e] = image
                    if violated(e):
                        pruned += 1
                        break
                else:
                    walk(after)
            del rows[d - 1:]
            del pivots[d - 1:]

    try:
        walk(1)
    finally:
        # walk reads itself through its closure cell; emptying the cell
        # breaks that cycle, so found, cols and by_depth are freed on
        # return or on a budget cut, not by gc
        del walk
    try:  # the family comparison builds all |Aut| family matrices
        size, _ = family_counts(alg.label, n, p)
    except (UnsupportedFamily, DimensionTooSmall):
        size = 0  # no family to compare with
    if size > budget:
        raise BudgetExceeded(size, budget)
    family = _family_param_space(alg)
    if family is not None:  # those whose columns g_k lead with 1
        family = {m for m in family
                  if all(next(filter(None, (row[g - 1] for row in m))) == 1 for g in gens)}
    all_in_family = None if family is None else set(found) == family
    torus_size = (p - 1) ** len(gens)
    elapsed = int((time.monotonic() - start) * 1000)
    return AutSearchReport(len(found) * torus_size, torus_size, all_in_family, elapsed,
                           nodes, forced_cols, pruned)


# -- normalizer of the maximal torus --------------------------------------


#: the normalizer search runs inside the parametrized automorphism
#: family; exhaustive searches at small sizes confirm the family is all
#: of Aut, and reports carry this note so consumers see the assumption.
FAMILY_SEARCH_NOTE = (
    "normalizer computed within the parametrized automorphism family "
    "(family = Aut verified by exhaustion at small sizes)"
)


class NormalizerReport(NamedTuple):
    """normalizer_size counts the family matrices that pass the zero-pattern
    test, which is |N(T) within the family| whenever holds is true: the
    coset representatives that pass it times the family's torus size.
    nodes counts the calls of the pruned span walk that found the
    representatives."""

    holds: bool
    normalizer_size: int
    torus_size: int
    elapsed_ms: int
    nodes: int
    note: str = FAMILY_SEARCH_NOTE

    def __bool__(self) -> bool:
        return self.holds


def _row_keeps_torus_diagonal(row, weights) -> bool:
    """True iff row is nonzero in columns of at most one weight class.

    The row is rejected at its first nonzero column whose weight differs
    from that of its first nonzero column."""
    first = None
    for w, x in zip(weights, row):
        if x:
            if first is None:
                first = w
            elif w != first:
                return False
    return True


def _keeps_torus_diagonal(m, weights) -> bool:
    """True iff no row of m is nonzero in columns of two weight classes: for
    invertible m, iff m P_w m^-1 is diagonal for every weight projector P_w."""
    return all(_row_keeps_torus_diagonal(row, weights) for row in m)


def _torus_points(weights, p: int) -> set[tuple[tuple[int, ...], ...]]:
    """The torus over F_p as int row tuples: diag(prod_k t_k^(w_ik)) for every
    t in (F_p^x)^r, w_i the weight of e_i and r its length."""
    n = len(weights)
    points = set()
    for t in itertools.product(range(1, p), repeat=len(weights[0])):
        diagonal = [math.prod(pow(s, e, p) for s, e in zip(t, w)) % p for w in weights]
        points.add(tuple(tuple(x if i == j else 0 for j in range(n)) for i, x in enumerate(diagonal)))
    return points


def _family_torus(alg: Algebra) -> set[tuple[tuple[int, ...], ...]]:
    """T_F, the family's own torus, as int row tuples: the family at the
    origin of the non-leading parameters, one diagonal matrix per leading
    value (diag(alpha, ..., alpha^n); diag(a_1, b_2, a_1 b_2, ...))."""
    field, n = alg.field, alg.dim
    rank, at = _family(alg.label, n)
    origin = (field.zero(),) * (n - 1)
    units = [field.scalar(v) for v in range(1, field.p)]
    return {tuple(map(tuple, _values(at(n, lead, origin), field)))
            for lead in itertools.product(units, repeat=rank)}


def normalizer_equals_torus(alg: Algebra, budget: int = DEFAULT_BUDGET) -> NormalizerReport:
    """Machine check that the torus is its own normalizer.

    The family matrices over F_p passing _keeps_torus_diagonal include
    N(T) within the family (see module docstring), and T lies in N(T); so
    equality of that set with the torus point set shows N(T) = T there.
    Both read the weights off universal_grading(alg): the degrees of e_i.

    The set is walked over one representative per coset of T_F, the
    family's torus (_family_torus): the family F is a group holding T_F,
    so F T_F = F, and right multiplication by a point t of T_F scales the
    columns by units, which keeps every zero pattern.  The leading units
    of M are its entries (1, 1) (alpha; a_1 for f1) and, for f1, (2, 2)
    (b_2), and M t multiplies them by those of t, so each coset meets R,
    the matrices whose leading units are 1, exactly once.  So the set is
    S T_F with S its part in R, |S T_F| = |S| |T_F|, and it equals the
    torus points exactly when S = {I} and T_F is the torus read off the
    weights; the second comparison is what catches wrong weights, whose
    row test keeps the same rows.

    The test is row by row, so _family_param_space walks the span at the
    one leading value of R with it and cuts a subtree at the first final
    row that fails: only the passing representatives are built.  The
    budget gates on the work done: BudgetExceeded(calls so far, budget)
    is raised at the first call of the walk past it, not on the family's
    size, or at once when the (p-1)^r leading values, which T_F takes one
    evaluation each, exceed it.  That count comes from family_counts,
    which also refuses an algebra with no family or below its least
    dimension (_family).
    """
    p = alg.field.p
    if p is None:
        raise FieldMismatch("the normalizer check needs a prime field")
    n = alg.dim
    # T_F takes one evaluation per leading value, and those are the
    # (p-1)^r torus points: more of them than the budget is refused
    # before any is evaluated
    _, leading = family_counts(alg.label, n, p)
    if leading > budget:
        raise BudgetExceeded(leading, budget)
    start = time.monotonic()
    weights = [d.coords for d in universal_grading(alg)[1].degrees]

    calls: list[int] = []
    representatives = _family_param_space(
        alg, lambda r, row: _row_keeps_torus_diagonal(row, weights), calls, budget,
        representatives=True)
    family_torus = _family_torus(alg)
    torus = _torus_points(weights, p)
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    holds = representatives == {identity} and family_torus == torus

    elapsed = int((time.monotonic() - start) * 1000)
    return NormalizerReport(holds, len(representatives) * len(family_torus), len(torus),
                            elapsed, sum(calls))
