"""The integer kernels of ``linalg`` against the field-scalar oracles.

Every product and elimination runs on integer images; the oracles in
``tests/helpers.py`` are the generic loops on ``Fraction`` and ``Fp``
scalars that they replaced. Results must agree value for value and
scalar type for scalar type, on seeded matrices of every shape.
"""

from fractions import Fraction
from math import gcd
from random import Random

import pytest
from helpers import (
    apply_by_scalars,
    integer_line,
    inverse_by_scalars,
    line_scalars,
    matmul_by_scalars,
    min_poly_by_scalars,
    root_scalar,
    rref_by_scalars,
    scalar,
    sort_lines_by_scalars,
)

from cartancover.cartan import MatrixSubspace, sort_lines
from cartancover.errors import DimensionMismatch, SingularMatrix
from cartancover.fields import GF, QQ, Fp
from cartancover.linalg import (
    Matrix,
    Subspace,
    eigenspaces,
    kernel,
    min_poly,
    rref,
    solve,
)

# (field, entry height); Q entries carry denominators up to the height
FIELDS = (
    (QQ, 1),
    (QQ, 10**6),
    (QQ, 10**12),
    (GF(2), None),
    (GF(3), None),
    (GF(1009), None),
    (GF(2**61 - 1), None),
)
FIELD_IDS = [f"{f}-h{h}" if h else str(f) for f, h in FIELDS]

# (rows, cols, rank or None for full random)
SHAPES = (
    (0, 3, None),
    (3, 0, None),
    (0, 0, None),
    (1, 1, None),
    (3, 7, None),
    (7, 3, None),
    (4, 4, 0),
    (5, 5, 2),
    (6, 4, 3),
    (8, 8, 7),
    (8, 8, None),
)


def _scalar(field, rng, height):
    if field.characteristic:
        # small residues as often as large ones, so pivots and zeros both occur
        p = field.p
        return Fp(rng.choice((0, 1, p - 1, rng.randrange(p))), p)
    if rng.random() < 0.3:
        return Fraction(0)
    dens = (1, 2, 3) if height == 1 else (1, rng.randint(1, height))
    return Fraction(rng.randint(-height, height), rng.choice(dens))


def _random(field, rng, height, nrows, ncols):
    rows = [[_scalar(field, rng, height) for _ in range(ncols)] for _ in range(nrows)]
    return Matrix(field, rows, ncols=ncols)


def _matrix(field, rng, height, nrows, ncols, rank):
    """A seeded matrix of the shape; of rank at most ``rank`` when given."""
    if rank is None:
        return _random(field, rng, height, nrows, ncols)
    left = _random(field, rng, height, nrows, rank)
    right = _random(field, rng, height, rank, ncols)
    return Matrix(field, matmul_by_scalars(left, right), ncols=ncols)


def _cases(field, height, label):
    rng = Random(f"{label}-{field}-{height}")
    for nrows, ncols, rank in SHAPES:
        # dense 8 x 8 rational matrices with unrelated denominators are slow
        # for every exact method alike; one sample of each is enough
        for _ in range(1 if min(nrows, ncols) == 8 else 3):
            yield _matrix(field, rng, height, nrows, ncols, rank)


def _assert_scalars(field, rows):
    for row in rows:
        for x in row:
            if field.characteristic:
                assert type(x) is Fp and x.p == field.p
            else:
                assert type(x) is Fraction


@pytest.mark.parametrize("field,height", FIELDS, ids=FIELD_IDS)
def test_rref_matches_the_scalar_oracle(field, height):
    for m in _cases(field, height, "rref"):
        res = rref(m)
        rows, pivots = rref_by_scalars(field, m.rows, m.ncols)
        assert res.matrix.rows == rows
        assert res.pivots == pivots and res.rank == len(pivots)
        _assert_scalars(field, res.matrix.rows)
        # the span of the rows is the nonzero part of the same RREF
        space = Subspace(field, m.ncols, m.rows)
        assert space.basis == rows[: len(pivots)]
        _assert_scalars(field, space.basis)


@pytest.mark.parametrize("field,height", FIELDS, ids=FIELD_IDS)
def test_inverse_matches_the_scalar_oracle(field, height):
    singular = 0
    for m in _cases(field, height, "inverse"):
        if not m.is_square():
            continue
        try:
            expected = inverse_by_scalars(m)
        except SingularMatrix:
            singular += 1
            with pytest.raises(SingularMatrix):
                m.inverse()
            continue
        inv = m.inverse()
        assert inv.rows == expected
        _assert_scalars(field, inv.rows)
    assert singular > 0


@pytest.mark.parametrize("field,height", FIELDS, ids=FIELD_IDS)
def test_min_poly_matches_the_scalar_oracle(field, height):
    for m in _cases(field, height, "min_poly"):
        if not m.is_square():
            continue
        mp = min_poly(m)
        assert mp == min_poly_by_scalars(m)
        _assert_scalars(field, [mp.coeffs])


@pytest.mark.parametrize("field,height", FIELDS, ids=FIELD_IDS)
def test_products_and_applications_match_the_scalar_oracle(field, height):
    rng = Random(f"product-{field}-{height}")
    for nrows, ncols, rank in SHAPES:
        a = _matrix(field, rng, height, nrows, ncols, rank)
        b = _matrix(field, rng, height, ncols, rng.randint(0, 8), None)
        prod = a @ b
        assert prod.rows == matmul_by_scalars(a, b)
        assert (prod.nrows, prod.ncols) == (a.nrows, b.ncols)
        _assert_scalars(field, prod.rows)
        # a product's kept image computes the next product like a fresh one
        c = _matrix(field, rng, height, b.ncols, 3, None)
        assert (prod @ c).rows == matmul_by_scalars(Matrix(field, prod.rows, ncols=prod.ncols), c)
        vec = tuple(_scalar(field, rng, height) for _ in range(ncols))
        image = a.apply(vec)
        assert image == apply_by_scalars(a, vec)
        _assert_scalars(field, [image])


@pytest.mark.parametrize("field,height", FIELDS, ids=FIELD_IDS)
def test_kernel_solve_and_eigenspaces_agree_with_scalar_arithmetic(field, height):
    for m in _cases(field, height, "kernel"):
        rank = len(rref_by_scalars(field, m.rows, m.ncols)[1])
        null = kernel(m)
        assert null.dim == m.ncols - rank
        for v in null.basis:
            assert apply_by_scalars(m, v) == (scalar(field, 0),) * m.nrows
        if m.ncols:
            rng = Random(len(m.rows))
            x = tuple(_scalar(field, rng, height) for _ in range(m.ncols))
            sol = solve(m, apply_by_scalars(m, x))
            assert sol is not None and apply_by_scalars(m, sol) == apply_by_scalars(m, x)
        if m.is_square():
            _mp, _roots, spaces = eigenspaces(m)
            for (num, den), space in spaces or ():
                lam = root_scalar(field, num, den)
                shifted = m - Matrix.identity(field, m.nrows).scale(lam)
                assert space == kernel(Matrix(field, shifted.rows, ncols=m.ncols))


@pytest.mark.parametrize("field,height", FIELDS, ids=FIELD_IDS)
def test_intersection_and_reduction_agree_with_dimensions(field, height):
    rng = Random(f"intersect-{field}-{height}")
    for n in (1, 3, 6):
        for _ in range(4):
            a = Subspace(field, n, _matrix(field, rng, height, rng.randint(0, n), n, None).rows)
            b = Subspace(field, n, _matrix(field, rng, height, rng.randint(0, n), n, None).rows)
            meet = a.intersect(b)
            joint = Subspace(field, n, a.basis + b.basis)
            assert meet.dim == a.dim + b.dim - joint.dim
            assert all(a.contains(v) and b.contains(v) for v in meet.basis)
            vec = tuple(_scalar(field, rng, height) for _ in range(n))
            # the residual of vec after elimination against the leading-one
            # basis, on field scalars
            residual = vec
            for q, row in zip(a.pivots(), a.basis):
                residual = tuple(x - vec[q] * y for x, y in zip(residual, row))
            assert all(residual[q] == 0 for q in a.pivots())
            assert a.contains(vec) == (not any(residual))
            # vec and its residual differ by a vector of a
            assert joint.contains(vec) == joint.contains(residual)
            assert Subspace(field, n, a.basis + (residual,)).contains(vec)


def _assert_canonical(m):
    # over GF(p) least residues over 1; over Q gcd(den, every entry) = 1, den > 0
    p = m.field.characteristic
    assert len(m.ints) == m.nrows and all(len(r) == m.ncols for r in m.ints)
    if p:
        assert m.den == 1 and all(0 <= x < p for r in m.ints for x in r)
    else:
        assert m.den > 0 and gcd(m.den, *[x for r in m.ints for x in r]) == 1


@pytest.mark.parametrize("field,height", FIELDS, ids=FIELD_IDS)
def test_equality_and_hash_ignore_the_integer_image(field, height):
    # however a matrix is reached, it holds the one canonical form of its
    # entries, so equality agrees with the scalar rows, and equal matrices
    # (and subspaces) reached by different routes hash equal
    rng = Random(f"hash-forms-{field}-{height}")

    def unit():
        return next(x for x in (_scalar(field, rng, height) for _ in range(50)) if x != 0)

    for nrows, ncols, _rank in SHAPES:
        # entries given as field scalars, and the same entries scaled by a unit
        # and scaled back
        given = tuple(tuple(_scalar(field, rng, height) for _ in range(ncols)) for _ in range(nrows))
        c = unit()
        scaled = Matrix(field, [[c * x for x in r] for r in given], ncols=ncols).scale(1 / c)
        assert scaled == Matrix(field, given, ncols=ncols)
        assert hash(scaled) == hash(Matrix(field, given, ncols=ncols))
    for m in _cases(field, height, "hash"):
        rows = tuple(tuple(r) for r in m.rows)
        c = unit()
        forms = [
            Matrix(field, rows, ncols=m.ncols),
            m @ Matrix.identity(field, m.ncols),
            Matrix.identity(field, m.nrows) @ m,
            # a non-canonical integer form of m, scaled by -7, a unit in each of FIELDS
            Matrix._make(field, -7 * m.den, [[-7 * x for x in r] for r in m.ints], m.ncols),
            m.scale(c).scale(1 / c),
            m + Matrix.zeros(field, m.nrows, m.ncols),
        ]
        for form in forms:
            _assert_canonical(form)
            assert form == m and form.rows == rows
            assert hash(form) == hash(m)
        if m.nrows and m.ncols:
            other = Matrix(field, ((rows[0][0] + 1,) + rows[0][1:],) + rows[1:], ncols=m.ncols)
            assert other != m
        # a subspace holds the canonical form of its reduced echelon basis
        echelon, pivots = rref_by_scalars(field, rows, m.ncols)
        basis = echelon[: len(pivots)]
        spanned = [Subspace(field, m.ncols, rows), Subspace(field, m.ncols, basis)]
        if m.nrows:
            scaled = [tuple(c * x for x in r) for r in reversed(rows)]
            spanned.append(Subspace(field, m.ncols, scaled))
        for space in spanned:
            _assert_canonical(space.echelon)
            assert space == spanned[0] and space.basis == basis
            assert hash(space) == hash(spanned[0])


# --- canonical integer lines -------------------------------------------------------

LINE_FIELDS = (QQ, GF(5), GF(7), GF(2**61 - 1))


def _nonzero(field, rng, height):
    return next(x for x in (_scalar(field, rng, height) for _ in range(50)) if x != 0)


@pytest.mark.parametrize("field", LINE_FIELDS, ids=str)
def test_canonical_integer_lines_agree_with_leading_one_lines(field):
    rng = Random(f"lines-{field}")
    p = field.characteristic
    for _ in range(300):
        vec = tuple(_scalar(field, rng, 10**6) for _ in range(rng.randint(1, 5)))
        lead = next((x for x in vec if x != 0), None)
        line = integer_line(field, vec)
        if lead is None:
            assert line is None
            continue
        assert line_scalars(field, line) == tuple(x / lead for x in vec)
        _assert_scalars(field, [line_scalars(field, line)])
        # one line for every nonzero multiple, a hashable tuple of ints
        c = _nonzero(field, rng, 10**6)
        assert integer_line(field, tuple(c * x for x in vec)) == line
        assert {line: 0}[line] == 0 and all(type(x) is int for x in line)
        top = next(x for x in line if x)
        if p:
            assert top == 1 and all(0 <= x < p for x in line)
        else:
            assert top > 0 and gcd(*line) == 1


@pytest.mark.parametrize("field", LINE_FIELDS, ids=str)
def test_integer_line_order_is_the_scalar_line_order(field):
    # report bytes depend on this order: the cover labels follow it
    rng = Random(f"order-{field}")
    for _ in range(150):
        n = rng.randint(1, 4)
        # few distinct entries, so that pivots and leading entries often tie
        entries = [_scalar(field, rng, 3) for _ in range(3)]
        by_line = {}
        for _ in range(rng.randint(1, 7)):
            vec = tuple(rng.choice(entries) * _nonzero(field, rng, 3) for _ in range(n))
            line = integer_line(field, vec)
            if line is not None:
                by_line[line] = line_scalars(field, line)
        if not by_line:
            continue
        expected = sort_lines_by_scalars(field, by_line.values())
        assert tuple(by_line[line] for line in sort_lines(list(by_line))) == expected


@pytest.mark.parametrize("field", LINE_FIELDS, ids=str)
def test_line_image_is_the_normalized_product(field):
    # a matrix carries the leading-one line of a canonical integer line to
    # num / den times the leading-one line of its image, or to zero
    rng = Random(f"map-{field}")
    zero_images = 0
    for _ in range(60):
        m = _matrix(field, rng, 5, 4, 4, rng.choice((None, 2, 0)))
        line = None
        while line is None:
            line = integer_line(field, tuple(_scalar(field, rng, 5) for _ in range(4)))
        num, den, image = m.map_line(line)
        w = apply_by_scalars(m, line_scalars(field, line))
        if image is None:
            zero_images += 1
            assert all(x == 0 for x in w)
            continue
        factor = field.from_ints([num], den)[0]
        assert image == integer_line(field, w)
        assert tuple(factor * x for x in line_scalars(field, image)) == w
    assert zero_images > 0


# --- operands over different fields -------------------------------------------------


def test_operands_over_different_fields_are_refused():
    # with integer images a GF(5) x GF(7) product would mix residues silently
    f5 = Matrix(GF(5), [[1, 2], [3, 4]])
    f7 = Matrix(GF(7), [[1, 2], [3, 4]])
    q = Matrix(QQ, [[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch):
        f5 @ f7
    with pytest.raises(DimensionMismatch):
        q @ f5
    with pytest.raises(DimensionMismatch):
        f5 + q
    with pytest.raises(DimensionMismatch):
        f5 - f7
    with pytest.raises(DimensionMismatch):
        f5.apply((Fp(1, 7), Fp(2, 7)))
    with pytest.raises(DimensionMismatch):
        f5.apply((Fraction(1, 2), Fraction(1)))
    with pytest.raises(DimensionMismatch):
        q.apply((Fp(1, 5), Fp(2, 5)))
    with pytest.raises(DimensionMismatch):
        solve(f5, (Fp(1, 7), Fp(0, 7)))
    with pytest.raises(DimensionMismatch):
        MatrixSubspace(GF(5), 2, [f7])


def test_subspace_operations_over_different_fields_are_refused():
    s5 = Subspace(GF(5), 2, [(1, 2)])
    s7 = Subspace(GF(7), 2, [(1, 2)])
    sq = Subspace(QQ, 2, [(1, 2)])
    with pytest.raises(DimensionMismatch):
        s5.intersect(s7)
    with pytest.raises(DimensionMismatch):
        sq.intersect(s5)
    for space, foreign in ((s5, (Fp(1, 7), Fp(2, 7))), (s5, (Fraction(1), Fraction(2))), (sq, (Fp(1, 5), Fp(2, 5)))):
        with pytest.raises(DimensionMismatch):
            space.contains(foreign)
        with pytest.raises(DimensionMismatch):
            space.coordinates_of(foreign)
        with pytest.raises(DimensionMismatch):
            Subspace(space.field, 2, [foreign])
    # plain integers are scalars of every field
    assert s5.contains((2, 4)) and sq.contains((2, 4))
