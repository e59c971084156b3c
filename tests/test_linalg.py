from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartancover import linalg
from cartancover.cartan import MatrixSubspace
from cartancover.errors import DimensionMismatch, SingularMatrix
from cartancover.fields import GF, QQ
from cartancover.linalg import (
    Matrix,
    Subspace,
    eigenspaces,
    kernel,
    lift,
    min_poly,
    restrict,
    rref,
    solve,
)
from cartancover.poly import Poly, nonsplit_witness, roots_in_field
from helpers import (
    apply_by_scalars,
    integer_line,
    inverse_by_scalars,
    line_scalars,
    matmul_by_scalars,
    min_poly_by_powers,
    min_poly_by_scalars,
    random_invertible_matrix,
    scalar,
)


def M(field, rows):
    return Matrix(field, rows)


small_entries = st.integers(min_value=-3, max_value=3)


def matrices(rows, cols, field=QQ):
    return st.lists(
        st.lists(small_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda rws: Matrix(field, rws))


# --- rref -------------------------------------------------------------


def test_rref_identity_fixed():
    ident = Matrix.identity(QQ, 2)
    res = rref(ident)
    assert res.matrix == ident and res.rank == 2


def test_rref_dependent_rows():
    res = rref(M(QQ, [[1, 2], [2, 4]]))
    assert res.matrix == M(QQ, [[1, 2], [0, 0]])
    assert res.rank == 1 and res.pivots == (0,)


def test_rref_swap_over_gf5():
    res = rref(M(GF(5), [[0, 1], [1, 0]]))
    assert res.matrix == Matrix.identity(GF(5), 2)
    assert res.rank == 2


@settings(max_examples=60)
@given(matrices(3, 4))
def test_rref_idempotent(m):
    once = rref(m).matrix
    assert rref(once).matrix == once


# --- kernel -----------------------------------------------------------


def test_kernel_identity_is_zero_space():
    assert kernel(Matrix.identity(QQ, 3)).dim == 0


def test_kernel_single_row():
    k = kernel(M(QQ, [[1, 1]]))
    assert k.basis == ((Fraction(1), Fraction(-1)),)


def test_kernel_rank_one():
    k = kernel(M(QQ, [[1, 2], [2, 4]]))
    assert k.basis == ((Fraction(1), Fraction(-1, 2)),)


@settings(max_examples=40)
@given(matrices(3, 5))
def test_kernel_vectors_are_annihilated(m):
    k = kernel(m)
    zero = (scalar(QQ, 0),) * 3
    for v in k.basis:
        assert m.apply(v) == zero
    assert k.dim == 5 - rref(m).rank


# --- minimal polynomial ------------------------------------------------


def test_min_poly_zero_matrix():
    assert min_poly(Matrix.zeros(QQ, 2, 2)) == Poly(QQ, (0, 1))


def test_min_poly_swap():
    assert min_poly(M(QQ, [[0, 1], [1, 0]])) == Poly(QQ, (-1, 0, 1))


def test_min_poly_nilpotent():
    assert min_poly(M(QQ, [[0, 1], [0, 0]])) == Poly(QQ, (0, 0, 1))


@settings(max_examples=40)
@given(matrices(3, 3))
def test_min_poly_annihilates(m):
    p = min_poly(m)
    acc = Matrix.zeros(QQ, 3, 3)
    power = Matrix.identity(QQ, 3)
    for c in p.coeffs:
        acc = acc + power.scale(c)
        power = power @ m
    assert acc == Matrix.zeros(QQ, 3, 3)


# --- eigenspaces --------------------------------------------------------


def test_eigenspaces_diagonal():
    mp, roots, spaces = eigenspaces(M(QQ, [[1, 0], [0, 2]]))
    assert mp == Poly(QQ, (2, -3, 1))  # (x - 1)(x - 2)
    assert roots == ((1, 1, 1), (2, 1, 1))
    assert [(lam, sp.basis) for lam, sp in spaces] == [
        ((1, 1), ((Fraction(1), Fraction(0)),)),
        ((2, 1), ((Fraction(0), Fraction(1)),)),
    ]


def test_eigenspaces_swap():
    _mp, _roots, spaces = eigenspaces(M(QQ, [[0, 1], [1, 0]]))
    spaces = dict(spaces)
    assert spaces[(1, 1)].basis == ((Fraction(1), Fraction(1)),)
    assert spaces[(-1, 1)].basis == ((Fraction(1), Fraction(-1)),)


def test_eigenspaces_nonsplit_witness():
    # no eigenspaces; the minimal polynomial and its roots name the witness
    mp, roots, spaces = eigenspaces(M(QQ, [[0, 1], [2, 0]]))
    assert spaces is None
    assert (mp, roots) == (Poly(QQ, (-2, 0, 1)), ())
    assert nonsplit_witness(mp, roots) == Poly(QQ, (-2, 0, 1))


def test_eigenspace_dimension_sum_defect_for_nilpotent():
    _mp, roots, spaces = eigenspaces(M(QQ, [[0, 1], [0, 0]]))
    assert roots == ((0, 1, 2),)
    assert sum(sp.dim for _lam, sp in spaces) == 1  # not diagonalizable


def test_lift_reads_coordinates_in_the_echelon_basis():
    # the echelon basis of the plane is (1, 0, 2), (0, 1, -1)
    plane = Subspace(QQ, 3, [(1, 2, 0), (0, 1, -1)])
    line = Subspace(QQ, 2, [(1, 1)])
    assert lift(plane, line) == Subspace(QQ, 3, [(1, 1, 1)])
    # the whole coordinate space is the subspace itself, and on all of k^n
    # the coordinates are the vectors
    assert lift(plane, Subspace.full(QQ, 2)) is plane
    whole, sub = Subspace.full(QQ, 3), Subspace(QQ, 3, [(1, 1, 1)])
    assert lift(whole, sub) is sub


# --- subspaces ----------------------------------------------------------


def test_subspace_equality_and_membership():
    a = Subspace(QQ, 2, [(1, 0), (0, 1)])
    assert a == Subspace.full(QQ, 2)
    assert a.contains((3, -7))


def test_subspace_canonicalization_is_basis_independent():
    rng = Random(5)
    for _ in range(25):
        vecs = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(4)) for _ in range(2)]
        s = Subspace(QQ, 4, vecs)
        if s.dim != 2:
            continue
        # a different spanning set of the same plane
        u = tuple(x + y for x, y in zip(vecs[0], vecs[1]))
        w = tuple(2 * x - y for x, y in zip(vecs[0], vecs[1]))
        assert Subspace(QQ, 4, [u, w]) == s


def test_subspace_intersection_of_coordinate_matrices():
    e11 = MatrixSubspace(QQ, 2, [M(QQ, [[1, 0], [0, 0]])])
    e22 = MatrixSubspace(QQ, 2, [M(QQ, [[0, 0], [0, 1]])])
    assert e11.space.intersect(e22.space).dim == 0


def test_matrix_subspace_membership():
    ident = Matrix.identity(QQ, 2)
    swap = M(QQ, [[0, 1], [1, 0]])
    span = MatrixSubspace(QQ, 2, [ident, swap])
    assert span.space.contains((swap + ident.scale(3)).flatten())
    assert not span.space.contains(M(QQ, [[1, 0], [0, 0]]).flatten())


def test_subspace_sum_and_intersection_dims():
    a = Subspace(QQ, 3, [(1, 0, 0), (0, 1, 0)])
    b = Subspace(QQ, 3, [(0, 1, 0), (0, 0, 1)])
    assert Subspace(QQ, 3, a.basis + b.basis).dim == 3
    inter = a.intersect(b)
    assert inter.dim == 1 and inter.contains((0, 5, 0))


def test_subspace_dimension_mismatch():
    a = Subspace(QQ, 2, [(1, 0)])
    b = Subspace(QQ, 3, [(1, 0, 0)])
    with pytest.raises(DimensionMismatch):
        a.intersect(b)


# --- matrices ------------------------------------------------------------


def test_inverse_and_solve():
    m = M(QQ, [[2, 1], [1, 1]])
    assert m @ m.inverse() == Matrix.identity(QQ, 2)
    assert solve(m, (3, 2)) == (Fraction(1), Fraction(1))
    assert solve(M(QQ, [[1, 1], [1, 1]]), (0, 1)) is None
    with pytest.raises(SingularMatrix):
        M(QQ, [[1, 2], [2, 4]]).inverse()


def test_coordinates_of_reads_off_pivots():
    s = Subspace(QQ, 3, [(1, 0, 2), (0, 1, -1)])
    v = (Fraction(3), Fraction(-2), Fraction(8))
    coords = s.coordinates_of(v)
    assert coords == (Fraction(3), Fraction(-2))
    with pytest.raises(ValueError):
        s.coordinates_of((1, 0, 0))


# --- min_poly against the solve-per-power oracle ------------------------


def min_poly_by_solves(m):
    """Oracle: a fresh linear solve for each power, until M^k depends on the earlier ones."""
    field, d = m.field, m.nrows
    powers = [Matrix.identity(field, d)]
    for _k in range(1, d + 1):
        nxt = powers[-1] @ m
        sol = solve(Matrix.from_columns(field, [p.flatten() for p in powers]), nxt.flatten())
        if sol is not None:
            return Poly(field, [-c for c in sol] + [field.one()])
        powers.append(nxt)
    raise AssertionError("no dependence among I, M, ..., M^d")


def _scalar(field, rng, d):
    return Matrix.identity(field, d).scale(rng.randint(-3, 3)), 1


def _nilpotent(field, rng, d):
    zero = scalar(field, 0)
    rows = [[scalar(field, rng.randint(-2, 2)) if j > i else zero for j in range(d)] for i in range(d)]
    return Matrix(field, rows), None


def _jordan_blocks(field, rng, d):
    # blocks of eigenvalue lam, or a Jordan block plus a scalar tail of another eigenvalue
    lam, mu = rng.randint(-3, 3), rng.randint(-3, 3)
    k = rng.randint(1, d)
    zero = scalar(field, 0)
    rows = [[zero] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = scalar(field, lam if i < k else mu)
        if i + 1 < k:
            rows[i][i + 1] = field.one()
    distinct = scalar(field, lam) != scalar(field, mu) and k < d
    return Matrix(field, rows), k + 1 if distinct else None


def _has_root(field, coeffs):
    return bool(roots_in_field(Poly(field, coeffs))[0])


def _irreducible_companion(field, rng, d):
    # a monic of degree 2 or 3 without a root in the field is irreducible
    k = rng.choice((2, 3))
    while True:
        low = [scalar(field, rng.randint(-5, 5)) for _ in range(k)]
        if not _has_root(field, low + [field.one()]):
            break
    zero, one = scalar(field, 0), field.one()
    rows = [[zero] * k for _ in range(k)]
    for i in range(1, k):
        rows[i][i - 1] = one
    for i in range(k):
        rows[i][k - 1] = -low[i]
    return Matrix(field, rows), k


def _dense(field, rng, d):
    return Matrix(field, [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]), None


MIN_POLY_FIELDS = (QQ, GF(2), GF(5), GF(1009))
MIN_POLY_CASES = (_scalar, _nilpotent, _jordan_blocks, _irreducible_companion, _dense)


@pytest.mark.parametrize("field", MIN_POLY_FIELDS, ids=str)
@pytest.mark.parametrize("case", MIN_POLY_CASES, ids=lambda c: c.__name__.strip("_"))
def test_min_poly_matches_the_solve_oracle(field, case):
    rng = Random(f"{case.__name__}-{field}")
    for _ in range(12):
        d = rng.randint(1, 6)
        m, degree = case(field, rng, d)
        t = random_invertible_matrix(rng, field, m.nrows)
        conjugated = t @ m @ t.inverse()
        for mat in (m, conjugated):
            mp = min_poly(mat)
            assert mp == min_poly_by_solves(mat)
            if degree is not None:
                assert mp.degree == degree


def _planted_degree(field, rng, d, k):
    """A d x d matrix whose minimal polynomial has degree k: the companion
    matrix of f = (x - c) h, for a random monic h of degree k - 1, beside
    c I of size d - k, conjugated by a random invertible matrix."""
    c = rng.randint(-3, 3)
    h = [rng.randint(-3, 3) for _ in range(k - 1)] + [1]
    f = [0] * (k + 1)
    for i, x in enumerate(h):
        f[i + 1] += x
        f[i] -= c * x
    rows = [[0] * d for _ in range(d)]
    for i in range(k):
        if i:
            rows[i][i - 1] = 1
        rows[i][k - 1] = -f[i]
    for i in range(k, d):
        rows[i][i] = c
    t = random_invertible_matrix(rng, field, d)
    return t @ Matrix(field, rows) @ t.inverse()


@pytest.mark.parametrize("field", (QQ, GF(2), GF(3), GF(7), GF(1009)), ids=str)
def test_min_poly_matches_the_scalar_oracle_in_every_degree(field):
    rng = Random(f"min poly degree {field}")
    for d in range(1, 11):
        for k in range(1, d + 1):
            m = _planted_degree(field, rng, d, k)
            mp = min_poly(m)
            assert mp == min_poly_by_scalars(m)
            assert mp.degree == k


# --- min_poly against the flattened powers --------------------------------
#
# min_poly takes the lcm of the annihilators of the unit vectors; the
# oracle is the elimination of the flattened powers I, M, ..., M^d that it
# replaced. Derogatory matrices, whose minimal polynomial has degree below
# d, are where the lcm needs more than one unit vector.

POWERS_FIELDS = ((QQ, 10**12), (GF(2), None), (GF(5), None), (GF(2**61 - 1), None))


def _entry(field, rng, height):
    if field.characteristic:
        return rng.randrange(field.p)
    return Fraction(rng.randint(-height, height), rng.choice((1, 2, 3)))


def _gauged(field, rng, height, rows):
    """The matrix ``rows`` conjugated by a random invertible matrix whose
    entries have the given height."""
    d = len(rows)
    while True:
        t = Matrix(field, [[_entry(field, rng, height) for _ in range(d)] for _ in range(d)])
        try:
            ti = t.inverse()
        except SingularMatrix:
            continue
        return t @ Matrix(field, rows) @ ti


def _block_diagonal(blocks):
    d = sum(len(b) for b in blocks)
    rows = [[0] * d for _ in range(d)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at : at + len(b)] = row
        at += len(b)
    return rows


def _jordan(c, k):
    return [[c if j == i else int(j == i + 1) for j in range(k)] for i in range(k)]


def _idempotent_case(field, rng, height, d):
    rank = rng.randint(0, d)
    return [[int(i == j and i < rank) for j in range(d)] for i in range(d)]


def _jordan_case(field, rng, height, d):
    blocks, left = [], d
    values = [_entry(field, rng, height) for _ in range(2)]
    while left:
        k = rng.randint(1, left)
        blocks.append(_jordan(rng.choice(values), k))
        left -= k
    return _block_diagonal(blocks)


def _repeated_case(field, rng, height, d):
    k = rng.randint(1, max(1, d // 2))
    block = [[_entry(field, rng, height) for _ in range(k)] for _ in range(k)]
    return _block_diagonal([block] * (d // k) + [_jordan(0, d % k)] * (d % k > 0))


def _regular_case(field, rng, height, d):
    return [[_entry(field, rng, height) for _ in range(d)] for _ in range(d)]


POWERS_CASES = (_idempotent_case, _jordan_case, _repeated_case, _regular_case)


@pytest.mark.parametrize("field,height", POWERS_FIELDS, ids=lambda x: str(x))
@pytest.mark.parametrize("case", POWERS_CASES, ids=lambda c: c.__name__.strip("_"))
def test_min_poly_matches_the_flattened_powers(field, height, case):
    rng = Random(f"{case.__name__}-{field}")
    for d in range(1, 11):
        rows = case(field, rng, height, d)
        for m in (Matrix(field, rows), _gauged(field, rng, height, rows)):
            mp = min_poly(m)
            assert mp == min_poly_by_powers(m)


# --- computed results -------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_computed_matrices_equal_checked_construction(field):
    # results are built without re-coercing their entries; they must still
    # hold field elements and equal the checked constructor's matrices
    rng = Random(12)
    a = random_invertible_matrix(rng, field, 3)
    b = random_invertible_matrix(rng, field, 3)
    scalar_type = type(field.one())
    results = [
        a @ b,
        a + b,
        a - b,
        a.scale(3),
        -a,
        Matrix.from_columns(field, a.rows),
        a.inverse(),
        rref(a @ b).matrix,
        MatrixSubspace(field, 3, [a]).basis_matrices()[0],
        Matrix.identity(field, 3),
        Matrix.zeros(field, 2, 3),
    ]
    for m in results:
        assert all(type(x) is scalar_type for row in m.rows for x in row)
        assert isinstance(m.rows, tuple) and all(isinstance(r, tuple) for r in m.rows)
        assert m == Matrix(field, m.rows, ncols=m.ncols)
        assert (m.nrows, m.ncols) == (len(m.rows), len(m.rows[0]))
    assert a @ a.inverse() == Matrix.identity(field, 3)


def test_product_through_zero_columns_has_the_outer_shape():
    left = Matrix(QQ, [[], []], ncols=0)
    right = Matrix(QQ, [], ncols=3)
    assert left @ right == Matrix.zeros(QQ, 2, 3)


# --- inputs read on their face ------------------------------------------------
#
# A unit line, a coordinate block and a monomial matrix are read without a
# product or an elimination; the results must be those of the scalar oracles.

FACE_FIELDS = (QQ, GF(2), GF(7), GF(1009))


@pytest.fixture
def kernel_calls(monkeypatch):
    """The names of the integer products and eliminations called, in order."""
    calls = []
    for name in ("_product", "_eliminate"):
        real = getattr(linalg, name)

        def counting(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(linalg, name, counting)
    return calls


def _face_scalar(field, rng):
    # zeros often, negative and fractional entries over Q
    if rng.random() < 0.3:
        return 0
    if field.characteristic:
        return rng.randrange(field.p)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def _nonzero_scalar(field, rng):
    while True:
        x = _face_scalar(field, rng)
        if x != 0:
            return x


def _face_matrix(field, rng, d):
    rows = [[_face_scalar(field, rng) for _ in range(d)] for _ in range(d)]
    if rng.random() < 0.3:
        # a zero column, so some unit line maps to zero
        zero = rng.randrange(d)
        for row in rows:
            row[zero] = 0
    return Matrix(field, rows)


def _unit(d, j, x=1):
    return tuple(x if i == j else 0 for i in range(d))


def _check_line_image(m, line):
    # m carries the leading-one line of ``line`` to num / den times the
    # leading-one line of the canonical integer line ``image``
    field, p = m.field, m.field.characteristic
    num, den, image = m.map_line(line)
    assert den == m.den * next(filter(None, line))
    w = apply_by_scalars(m, line_scalars(field, line))
    if image is None:
        assert num == 0 and all(x == 0 for x in w)
        return False
    lead = next(filter(None, image))
    if p:
        assert 0 < num < p and lead == 1 and all(0 <= x < p for x in image)
    else:
        assert lead > 0 and gcd(*image) == 1
    w_lead = next(x for x in w if x != 0)
    assert line_scalars(field, image) == tuple(x / w_lead for x in w)
    factor = field.from_ints([num], den)[0]
    assert tuple(factor * x for x in line_scalars(field, image)) == w
    return True


@pytest.mark.parametrize("field", FACE_FIELDS, ids=str)
def test_a_unit_line_maps_to_its_column(field):
    rng = Random(f"unit lines {field}")
    images = []
    for _ in range(30):
        d = rng.randint(1, 8)
        m = _face_matrix(field, rng, d)
        for j in range(d):
            images.append(_check_line_image(m, _unit(d, j)))
            # a unit vector that is no canonical line: the column, scaled
            x = rng.randrange(1, field.p) if field.characteristic else rng.choice((-3, -1, 2, 5))
            images.append(_check_line_image(m, _unit(d, j, x)))
        dense = integer_line(field, [_nonzero_scalar(field, rng) for _ in range(d)])
        images.append(_check_line_image(m, dense))
    assert True in images and False in images


@pytest.mark.parametrize("field", FACE_FIELDS, ids=str)
def test_restriction_to_a_coordinate_block_is_a_submatrix(field, kernel_calls):
    rng = Random(f"coordinate restriction {field}")
    for _ in range(30):
        d = rng.randint(2, 8)
        m = _face_matrix(field, rng, d)
        positions = sorted(rng.sample(range(d), rng.randint(1, d - 1)))
        # spanned by scaled unit vectors: their echelon rows are unit vectors
        block = Subspace(field, d, [_unit(d, q, _nonzero_scalar(field, rng)) for q in positions])
        assert block == Subspace.coordinate(field, d, positions)
        # column i of m|_W is m e_i read at W's pivots
        product = matmul_by_scalars(m, Matrix.from_columns(field, block.basis))
        expected = tuple(product[q] for q in positions)
        kernel_calls.clear()
        restricted = restrict(m, block)
        assert kernel_calls == []
        assert restricted.rows == expected
        assert restricted == Matrix(field, expected)


@pytest.mark.parametrize("field", FACE_FIELDS, ids=str)
def test_lift_of_a_coordinate_block_into_one_is_coordinate(field, kernel_calls):
    rng = Random(f"coordinate lift {field}")
    for _ in range(30):
        d = rng.randint(2, 8)
        positions = sorted(rng.sample(range(d), rng.randint(1, d - 1)))
        space = Subspace.coordinate(field, d, positions)
        w = len(positions)
        inner = sorted(rng.sample(range(w), rng.randint(1, w)))
        dense = [[_face_scalar(field, rng) for _ in range(w)] for _ in range(rng.randint(1, w))]
        basis = Matrix.from_columns(field, space.basis)
        coordinate = Subspace.coordinate(field, w, inner)
        for sub in (coordinate, Subspace(field, w, dense)):
            # the vectors whose coordinates in the basis of space span sub
            expected = Subspace(field, d, [apply_by_scalars(basis, s) for s in sub.basis])
            kernel_calls.clear()
            lifted = lift(space, sub)
            assert lifted == expected
            if sub is coordinate:
                assert kernel_calls == []
                assert lifted == Subspace.coordinate(field, d, [positions[i] for i in inner])


@pytest.mark.parametrize("field", FACE_FIELDS, ids=str)
def test_a_monomial_matrix_inverts_by_transposing(field, kernel_calls):
    rng = Random(f"monomial inverse {field}")
    for _ in range(40):
        d = rng.randint(1, 8)
        rows = [[0] * d for _ in range(d)]
        for i, j in enumerate(rng.sample(range(d), d)):
            rows[i][j] = _nonzero_scalar(field, rng)
        m = Matrix(field, rows)
        expected = inverse_by_scalars(m)
        kernel_calls.clear()
        inv = m.inverse()
        assert kernel_calls == []
        assert inv.rows == expected
        assert inv == Matrix(field, expected)
    # one nonzero per row, two in one column: singular
    for d in range(2, 9):
        cols = [rng.randrange(d) for _ in range(d)]
        if len(set(cols)) == d:
            cols[0] = cols[1]
        rows = [[_nonzero_scalar(field, rng) if j == c else 0 for j in range(d)] for c in cols]
        m = Matrix(field, rows)
        with pytest.raises(SingularMatrix):
            inverse_by_scalars(m)
        with pytest.raises(SingularMatrix):
            m.inverse()
