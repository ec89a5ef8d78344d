import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors

from multloc.fpmod import FPModule, Morphism
from multloc.intlinalg import (
    _eliminate,
    hnf_rows,
    lattice_coordinates,
    lattice_member,
    mat_mul,
    smith_normal_form,
)
import reference_routes as replaced

small_ints = st.integers(min_value=-9, max_value=9)


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    r = draw(st.integers(min_value=1, max_value=max_rows))
    c = draw(st.integers(min_value=1, max_value=max_cols))
    return draw(st.lists(st.lists(small_ints, min_size=c, max_size=c),
                         min_size=r, max_size=r))


def test_snf_identity():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]


def test_snf_diag_2_3():
    # hand-checkable: diag(2, 3) is equivalent to diag(1, 6)
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


def test_snf_zero_matrix():
    assert smith_normal_form([[0]]) == [0]


def _sympy_factors(a):
    return [abs(int(d)) for d in invariant_factors(Matrix(a), domain=ZZ)]


def _check_snf_postconditions(a):
    factors = smith_normal_form(a)
    assert factors == _sympy_factors(a)
    assert len(factors) == min(len(a), len(a[0]))


def test_snf_random_postconditions():
    rng = random.Random(1234)
    for _ in range(120):
        r = rng.randint(1, 8)
        c = rng.randint(1, 8)
        a = [[rng.randint(-50, 50) for _ in range(c)] for _ in range(r)]
        _check_snf_postconditions(a)


def test_snf_rectangular():
    _check_snf_postconditions([[2, 4, 6], [4, 8, 10]])
    _check_snf_postconditions([[3], [6], [9]])


def test_hnf_canonical_equality():
    # same row lattice, different generating sets
    a = hnf_rows([[2, 0], [0, 3]])
    b = hnf_rows([[2, 3], [2, 0], [4, 3]])
    assert a == b
    assert lattice_member(a, [2, 3])
    assert lattice_member(a, [0, 3])
    assert not lattice_member(a, [1, 0])


def test_hnf_random_membership():
    rng = random.Random(99)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        basis = hnf_rows(a)
        # every original row is a member
        for row in a:
            assert lattice_member(basis, row)
        # random combinations are members
        for _ in range(5):
            coeffs = [rng.randint(-3, 3) for _ in range(r)]
            combo = [sum(coeffs[i] * a[i][j] for i in range(r)) for j in range(c)]
            assert lattice_member(basis, combo)


def stacked_map(a, lattice=()):
    """The map Z^len(a) -> Z^cols / (row lattice of ``lattice``) with matrix
    ``a``: its Hermite form eliminates [a | I ; lattice | 0], so its
    preimage HNF is the left kernel of ``a`` modulo the lattice.  The target
    keeps the lattice rows as given."""
    cols = len(a[0]) if a else len(lattice[0])
    target = FPModule.from_presentation([list(r) for r in lattice], gens=cols)
    return Morphism.make(FPModule(gens=len(a)), target, a)


def left_kernel(a, lattice=()):
    return [list(row) for row in stacked_map(a, lattice)._hermite_forms()[1]]


def test_left_nullspace():
    a = [[1, 2], [2, 4], [0, 1]]
    null = left_kernel(a)
    for v in null:
        assert all(sum(v[i] * a[i][j] for i in range(3)) == 0 for j in range(2))
    # (2, -1, 0) is in the left kernel
    basis = hnf_rows(null)
    assert lattice_member(basis, [2, -1, 0])


def test_solve_left():
    # the reference solve, which the tests' own solves go through
    a = [[2, 0], [0, 3]]
    sols = replaced.solve_left(a, [[4, 3], [0, -6]])
    assert sols is not None
    for v, x in zip(sols, [[4, 3], [0, -6]]):
        assert [sum(v[i] * a[i][j] for i in range(2)) for j in range(2)] == x
    assert replaced.solve_left(a, [[4, 3], [1, 0]]) is None
    # modulo the lattice 5Z^2, 1 = 3 * 2 - 5 makes (1, 0) reachable
    v, = replaced.solve_left(a, [[1, 0]], [[5, 0], [0, 5]])
    assert (2 * v[0] - 1) % 5 == 0 and 3 * v[1] % 5 == 0


def _is_reduced_echelon(basis):
    leads = []
    for row in basis:
        lead = next(j for j, x in enumerate(row) if x)
        if leads and lead <= leads[-1]:
            return False
        leads.append(lead)
    return all(0 <= basis[k][lead] < basis[i][lead]
               for i, lead in enumerate(leads) for k in range(i))


def test_hnf_reduced_above_every_pivot():
    # reducing top-down by descending pivots left the 3 above the last
    # pivot at -3 once the middle row had been subtracted
    a = [[1, 0, -3], [0, 1, -2], [1, 1, 0]]
    assert hnf_rows(a) == [[1, 0, 2], [0, 1, 3], [0, 0, 5]]
    assert hnf_rows([[1, 0, 2], [0, 1, 3], [0, 0, 5]]) == hnf_rows(a)
    # reducing the top row against the last pivot before the middle one
    # leaves the 2 that subtracting the middle row puts above the last pivot
    assert hnf_rows([[1, -2, 0], [0, -1, -1], [0, 0, 2]]) == [[1, 0, 0], [0, 1, 1],
                                                             [0, 0, 2]]


def _sympy_hnf_rows(a):
    # sympy's Hermite form is Cohen's column form (pivots at the bottom right,
    # reduced to the right of each pivot); on the column-reversed transpose,
    # reversed back, it is the row form hnf_rows computes
    h = hermite_normal_form(Matrix(a)[:, ::-1].T)
    return [[int(x) for x in row] for row in h[::-1, ::-1].T.tolist()]


@settings(max_examples=200, deadline=None)
@given(matrices(), st.booleans(), st.integers(min_value=2, max_value=30))
def test_hnf_matches_sympy(a, stacked, n):
    # stacked N*I rows give the full-rank lattices relation matrices over Z/N have
    if stacked:
        a = a + [[n if i == j else 0 for j in range(len(a[0]))] for i in range(len(a[0]))]
    assume(any(map(any, a)))
    assert hnf_rows(a) == _sympy_hnf_rows(a)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_hnf_invariant_under_unimodular_rows(a, rng):
    basis = hnf_rows(a)
    assert _is_reduced_echelon(basis)
    b = [row[:] for row in a]
    for _ in range(3 * len(b)):
        i, j = rng.sample(range(len(b)), 2) if len(b) > 1 else (0, 0)
        if i != j:
            q = rng.randint(-3, 3)
            b[i] = [x + q * y for x, y in zip(b[i], b[j])]
        if rng.random() < 0.3:
            b[i] = [-x for x in b[i]]
    rng.shuffle(b)
    assert hnf_rows(b) == basis


@st.composite
def lattices(draw, cols):
    """No rows, or N*I (N from 2 to 12) with up to two more rows."""
    if draw(st.booleans()):
        return []
    n = draw(st.integers(min_value=2, max_value=12))
    extra = draw(st.lists(st.lists(small_ints, min_size=cols, max_size=cols), max_size=2))
    return [[n if i == j else 0 for j in range(cols)] for i in range(cols)] + extra


@st.composite
def matrices_over_lattices(draw):
    a = draw(matrices())
    return a, draw(lattices(len(a[0])))


@settings(max_examples=150, deadline=None)
@given(matrices_over_lattices())
def test_row_echelon_postconditions(case):
    # the echelon rows of the stacked matrix, and a map's preimage HNF
    a, lattice = case
    cols = len(a[0])
    pre = stacked_map(a, lattice)._hermite_forms()[1]
    rows, _, pivots = replaced.echelon(a, lattice)
    rows = rows[:len(pivots)]
    e = [row[:cols] for row in rows]
    u = [row[cols:] for row in rows]
    assert all(len(t) == len(a) for t in u)
    pivots = [next(j for j, x in enumerate(row) if x) for row in e]
    assert pivots == sorted(set(pivots))
    for k, c in enumerate(pivots):
        assert e[k][c] > 0
    assert len(rows) == Matrix(a + lattice).rank()
    # each transform row maps a onto its echelon row modulo the lattice, and
    # each preimage row into the lattice
    span = hnf_rows(lattice) if lattice else []
    for t, row in zip(mat_mul(u, a), e):
        assert lattice_member(span, [x - y for x, y in zip(row, t)])
    for t in mat_mul([list(r) for r in pre], a):
        assert lattice_member(span, t)
    if not lattice:
        # with nothing to reduce modulo, the echelon transforms and the
        # kernel basis together are one unimodular change of basis
        assert abs(Matrix(u + [list(r) for r in pre]).det()) == 1


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_left_nullspace_is_saturated_kernel(a):
    # the Z-left-kernel is the saturated lattice of rank len(a) - rank(a):
    # each row annihilates a, and the basis has only unit invariant factors
    null = left_kernel(a)
    assert not any(x for row in mat_mul(null, a) for x in row)
    assert len(null) == len(a) - Matrix(a).rank()
    if null:
        assert _sympy_factors(null) == [1] * len(null)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.lists(st.integers(min_value=-3, max_value=3), min_size=6,
                            max_size=6), st.lists(small_ints, min_size=6, max_size=6),
       st.booleans())
def test_solve_left_exactly_on_lattice(a, coeffs, noise, in_lattice):
    cols = len(a[0])
    if in_lattice:
        x = [sum(c * row[j] for c, row in zip(coeffs, a)) for j in range(cols)]
    else:
        x = noise[:cols]
    sols = replaced.solve_left(a, [x])
    v = sols[0] if sols is not None else None
    member = lattice_member(hnf_rows(a), x)
    assert (v is not None) == member
    if v is not None:
        assert len(v) == len(a)
        assert [sum(v[i] * a[i][j] for i in range(len(a))) for j in range(cols)] == x


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_snf_factors_match_sympy(a):
    assert smith_normal_form(a) == _sympy_factors(a)


# The route that the narrow-transform left kernels and solves replaced, kept
# as the reference: stack the lattice under a, eliminate [a ; lattice | I]
# with the full identity and whole-row operations, keep the first len(a)
# transform columns, and solve one vector per elimination.
def _reference_echelon(a):
    n = len(a)
    cols = len(a[0]) if n else 0
    rows = [row[:] + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    pivots, r = [], 0
    for c in range(cols):
        if r == n:
            break
        live = [i for i in range(r, n) if rows[i][c]]
        if not live:
            continue
        while True:
            p = min(live, key=lambda i: abs(rows[i][c]))
            prow = rows[p]
            pv = prow[c]
            rest = []
            for i in live:
                if i != p:
                    q = rows[i][c] // pv
                    rows[i] = [x - q * y for x, y in zip(rows[i], prow)]
                    if rows[i][c]:
                        rest.append(i)
            if not rest:
                break
            live = rest + [p]
        rows[p] = rows[r]
        rows[r] = prow if pv > 0 else [-x for x in prow]
        pivots.append(c)
        r += 1
    return [row[:cols] for row in rows], [row[cols:] for row in rows], pivots


def _reference_left_nullspace(a, lattice):
    _, u, pivots = _reference_echelon(a + lattice)
    return [v[:len(a)] for v in u[len(pivots):]]


def _reference_solve(a, xs, lattice):
    out = []
    for x in xs:
        e, u, pivots = _reference_echelon(a + lattice)
        rest, v = list(x), [0] * len(a + lattice)
        for k, c in enumerate(pivots):
            q = rest[c] // e[k][c]
            rest = [y - q * z for y, z in zip(rest, e[k])]
            v = [y + q * z for y, z in zip(v, u[k])]
        if any(rest):
            return None
        out.append(v[:len(a)])
    return out


@st.composite
def systems(draw):
    """(a, xs, lattice): xs mostly combinations of a and the lattice rows,
    with noise added to some entries so that some systems have no solution."""
    a, lattice = draw(matrices_over_lattices())
    cols = len(a[0])
    gens = a + lattice
    xs = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        coeffs = draw(st.lists(st.integers(min_value=-3, max_value=3),
                               min_size=len(gens), max_size=len(gens)))
        x = [sum(c * row[j] for c, row in zip(coeffs, gens)) for j in range(cols)]
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            j = draw(st.integers(min_value=0, max_value=cols - 1))
            x[j] += draw(st.integers(min_value=1, max_value=3))
        xs.append(x)
    return a, xs, lattice


@settings(max_examples=300, deadline=None)
@given(systems())
def test_narrow_transform_matches_the_full_width_route(case):
    a, xs, lattice = case
    assert left_kernel(a, lattice) == hnf_rows(_reference_left_nullspace(a, lattice))
    assert replaced.solve_left(a, xs, lattice) == _reference_solve(a, xs, lattice)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_hermite_form_replaces_the_echelon_route(case):
    # the preimage HNF spans the left kernel of the echelon route
    a, xs, lattice = case
    f = stacked_map(a, lattice)
    assert [list(r) for r in f._hermite_forms()[1]] == \
        hnf_rows(replaced.left_nullspace(a, lattice))


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_elimination_does_the_reference_row_operations(a):
    # the pivot is found without per-iteration lists and a column is left
    # once one live row is left; the rows and pivots stay those of the loop
    # that rebuilt both lists on every pass
    cols = len(a[0])
    rows = [row + [int(i == j) for j in range(len(a))] for i, row in enumerate(a)]
    pivots = _eliminate(rows, cols)
    e, u, ref_pivots = _reference_echelon(a)
    assert pivots == ref_pivots
    assert [row[:cols] for row in rows] == e
    assert [row[cols:] for row in rows] == u


@settings(max_examples=300, deadline=None)
@given(systems())
def test_lattice_coordinates_on_echelon_bases(case):
    # on the HNF and on the raw echelon rows (transform columns included,
    # which are not read) the coordinates rebuild x exactly, and exist
    # exactly when the solve finds a solution
    a, xs, lattice = case
    cols = len(a[0])
    rows, _, pivots = replaced.echelon(a, lattice)
    echelon = rows[:len(pivots)]
    hnf = hnf_rows(a + lattice)
    for x in xs:
        solvable = replaced.solve_left(a, [x], lattice) is not None
        for basis in (hnf, echelon):
            coords = lattice_coordinates(basis, x)
            assert (coords is not None) == solvable == lattice_member(basis, x)
            if coords is not None:
                assert len(coords) == len(basis)
                assert [sum(c * row[j] for c, row in zip(coords, basis))
                        for j in range(cols)] == x


def test_lattice_coordinates_by_hand():
    basis = hnf_rows([[2, 0], [0, 3]])
    assert lattice_coordinates(basis, [4, -3]) == [2, -1]
    assert lattice_coordinates(basis, [1, 0]) is None
    assert lattice_coordinates(basis, [0, 4]) is None
    # a non-pivot column that substitution cannot clear
    assert lattice_coordinates([[0, 2, 4]], [1, 2, 4]) is None
    assert lattice_coordinates([], [0, 0]) == []
    assert lattice_coordinates([], [0, 1]) is None


sparse_entries = st.one_of(st.just(0), st.just(0), small_ints,
                           st.integers(min_value=-10 ** 30, max_value=10 ** 30))


@st.composite
def product_shapes(draw):
    """A pair of matrices that can be multiplied, many entries zero, any of
    the three dimensions possibly 0."""
    r, k, c = (draw(st.integers(min_value=0, max_value=7)) for _ in range(3))
    a = draw(st.lists(st.lists(sparse_entries, min_size=k, max_size=k),
                      min_size=r, max_size=r))
    b = draw(st.lists(st.lists(sparse_entries, min_size=c, max_size=c),
                      min_size=k, max_size=k))
    return a, b


@settings(max_examples=200, deadline=None)
@given(product_shapes())
def test_mat_mul_matches_the_dense_product(ab):
    a, b = ab
    assert mat_mul(a, b) == replaced.mat_mul_dense(a, b)


def test_mat_mul_shapes():
    assert mat_mul([], [[1, 2]]) == []
    assert mat_mul([[], []], []) == [[], []]
    assert mat_mul([[0, 0]], [[1], [2]]) == [[0]]
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[1]])
