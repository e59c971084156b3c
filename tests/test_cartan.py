from fractions import Fraction
from itertools import product
from random import Random

import pytest

from cartancover import linalg
from cartancover.cartan import (
    CartanStatus,
    MatrixSubspace,
    NotCartanReason,
    classify_subspace,
    conjugate_subspace,
    simultaneous_eigenlines,
)
from cartancover.errors import NotSplitCartan, SingularMatrix
from cartancover.fields import GF, QQ, PrimeField
from cartancover.linalg import Matrix, Subspace, rref
from cartancover.poly import Poly
from helpers import (
    classify_by_min_polys,
    eigenline_scalars,
    field_elements,
    is_invertible,
    is_split,
    random_invertible_matrix,
    random_subspace_for_cartan_test,
    scalar,
    subalgebra_closure_defect,
)


def M(field, rows):
    return Matrix(field, rows)


def span(field, d, mats):
    return MatrixSubspace(field, d, [M(field, r) for r in mats])


# --- independent oracle: exhaustive search for a diagonalizing conjugation ----
#
# A conjugation taking the subspace into the diagonal algebra exists exactly
# when d linearly independent common eigenvectors exist, so the oracle walks
# every line of k^d (all nonzero vectors up to leading-one scale), keeps the
# common eigenlines, and asks whether they span. Nothing here touches minimal
# polynomials or the refinement algorithm under test.


def _projective_points(field, d):
    if isinstance(field, PrimeField):
        scalars = field_elements(field)
    else:
        scalars = [Fraction(n, m) for n in range(-4, 5) for m in range(1, 4)]
    for pivot in range(d):
        prefix = (scalar(field, 0),) * pivot + (field.one(),)
        for tail in product(scalars, repeat=d - pivot - 1):
            yield prefix + tuple(scalar(field, x) for x in tail)


def _is_common_eigenvector(basis_matrices, vec, field):
    for m in basis_matrices:
        image = m.apply(vec)
        pivot = next(i for i, x in enumerate(vec) if x != 0)
        scalar = image[pivot]
        if tuple(scalar * x for x in vec) != image:
            return False
    return True


def diagonalizable_by_conjugation_oracle(subspace, d, field):
    if subspace.dim != d:
        return False
    basis = subspace.basis_matrices()
    eigenlines = [
        v for v in _projective_points(field, d) if _is_common_eigenvector(basis, v, field)
    ]
    if len(eigenlines) < d:
        return False
    return rref(Matrix(field, eigenlines, ncols=d)).rank == d


def gl_search_oracle_d2(subspace, field):
    """Literal search over all invertible 2x2 matrices (tiny fields only)."""
    if subspace.dim != 2:
        return False
    diag = MatrixSubspace.diagonal_algebra(field, 2)
    scalars = field_elements(field)
    for entries in product(scalars, repeat=4):
        t = Matrix(field, [entries[:2], entries[2:]])
        if not is_invertible(t):
            continue
        conjugates = (t @ a @ t.inverse() for a in subspace.basis_matrices())
        if all(diag.space.contains(c.flatten()) for c in conjugates):
            return True
    return False


# --- classification examples ---------------------------------------------


def test_full_diagonal_is_split_cartan():
    assert is_split(classify_subspace(MatrixSubspace.diagonal_algebra(QQ, 3)))


# --- the diagonal algebra, built on its face ------------------------------


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7), GF(2**61 - 1)], ids=str)
def test_diagonal_algebra_is_built_without_elimination(field, monkeypatch):
    calls = []
    real = linalg._eliminate

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    for d in range(1, 9):
        a = MatrixSubspace.diagonal_algebra(field, d)
        space, basis = a.space, a.basis_matrices()
        assert calls == []
        # the canonical form is the eliminated span of the unit matrices
        units = [[x for r in m.ints for x in r] for m in a.generators]
        assert space == Subspace._spanned(field, d * d, units)
        assert calls == [d * d]
        calls.clear()
        assert basis == a.generators and a == MatrixSubspace(field, d, a.generators)
        calls.clear()
        # the preset basis is the slices of the canonical form, as Matrix._make builds them
        echelon = space.echelon
        assert basis == tuple(
            Matrix._make(field, echelon.den, [r[i * d : (i + 1) * d] for i in range(d)], d)
            for r in echelon.ints
        )
        for t, m in enumerate(basis):
            assert m.rows == tuple(
                tuple(scalar(field, int(i == j == t)) for j in range(d)) for i in range(d)
            )


def test_nilpotent_span_is_not_cartan():
    a = span(QQ, 2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    verdict = classify_subspace(a)
    assert verdict.status is CartanStatus.NOT_CARTAN
    assert verdict.reason is NotCartanReason.NOT_DIAGONALIZABLE
    assert verdict.witness_poly == Poly(QQ, (0, 0, 1))


def test_nonsplit_span_over_q():
    a = span(QQ, 2, [[[1, 0], [0, 1]], [[0, 1], [2, 0]]])
    verdict = classify_subspace(a)
    assert verdict.status is CartanStatus.NONSPLIT
    assert verdict.witness_poly == Poly(QQ, (-2, 0, 1))


def test_wrong_dimension():
    a = span(QQ, 2, [[[1, 0], [0, 0]]])
    verdict = classify_subspace(a)
    assert verdict.reason is NotCartanReason.WRONG_DIMENSION


def test_noncommutative_witness_pair():
    a = span(QQ, 2, [[[1, 0], [0, 0]], [[0, 1], [1, 0]]])
    verdict = classify_subspace(a)
    assert verdict.reason is NotCartanReason.NOT_COMMUTATIVE
    i, j = verdict.witness_pair
    basis = a.basis_matrices()
    assert basis[i] @ basis[j] != basis[j] @ basis[i]


def test_degree_equal_characteristic_still_classifies():
    # over GF(3) the generic diagonal matrix has a degree-3 minimal polynomial
    f = GF(3)
    t = random_invertible_matrix(Random(11), f, 3)
    a = conjugate_subspace(MatrixSubspace.diagonal_algebra(f, 3), t)
    assert is_split(classify_subspace(a))


# --- eigenlines ------------------------------------------------------------


def test_eigenlines_full_diagonal_d2():
    a = MatrixSubspace.diagonal_algebra(QQ, 2)
    assert simultaneous_eigenlines(a) == ((1, 0), (0, 1))
    eig = classify_subspace(a).eigenlines
    assert eigenline_scalars(QQ, eig.ints) == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert eig.values.rows == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_eigenlines_swap_span():
    a = span(QQ, 2, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    eig = classify_subspace(a).eigenlines
    assert eig.ints == simultaneous_eigenlines(a)
    lines = eigenline_scalars(QQ, eig.ints)
    assert set(lines) == {(Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1))}
    by_line = dict(zip(lines, eig.values.rows))
    assert by_line[(Fraction(1), Fraction(1))] == (Fraction(1), Fraction(1))
    assert by_line[(Fraction(1), Fraction(-1))] == (Fraction(1), Fraction(-1))


def test_eigenlines_over_gf7():
    f = GF(7)
    a = span(f, 2, [[[1, 0], [0, 1]], [[0, 1], [2, 0]]])
    eig = classify_subspace(a).eigenlines
    assert eig.ints == simultaneous_eigenlines(a)
    as_ints = [tuple(x.val for x in line) for line in eigenline_scalars(f, eig.ints)]
    assert as_ints == [(1, 3), (1, 4)]
    assert [tuple(x.val for x in mu) for mu in eig.values.rows] == [(1, 3), (1, 4)]


def test_eigenlines_reject_nonsplit_input():
    a = span(QQ, 2, [[[1, 0], [0, 1]], [[0, 1], [2, 0]]])
    with pytest.raises(NotSplitCartan):
        simultaneous_eigenlines(a)


def _verdict_fields(verdict):
    return (
        verdict.status,
        verdict.reason,
        verdict.witness_pair,
        verdict.witness_index,
        verdict.witness_poly,
        str(verdict),
    )


@pytest.mark.parametrize("field", (QQ, GF(2), GF(3), GF(5), GF(7), GF(1009)), ids=str)
def test_eigenline_split_agrees_with_the_classifier(field):
    # the split names every failure with the verdict of the min-poly
    # classifier it replaced, witness and rendering included, and
    # certifies the lines it returns exactly on split Cartan subspaces
    rng = Random(600 + getattr(field, "p", 0))
    outcomes = set()
    for _ in range(400):
        d = rng.randint(1, 5)
        a = random_subspace_for_cartan_test(rng, field, d)
        expected = classify_by_min_polys(a, d)
        verdict = classify_subspace(a)
        assert _verdict_fields(verdict) == _verdict_fields(expected)
        outcomes.add(verdict.status)
        eig = verdict.eigenlines
        assert (eig is not None) == is_split(expected)
        if eig is None:
            continue
        lines = eigenline_scalars(field, eig.ints)
        assert rref(Matrix(field, list(lines), ncols=d)).rank == d
        for line, mu in zip(lines, eig.values.rows):
            for m, scalar in zip(a.basis_matrices(), mu):
                assert m.apply(line) == tuple(scalar * x for x in line)
    assert {CartanStatus.SPLIT, CartanStatus.NOT_CARTAN} <= outcomes


def test_eigenline_invariants_on_random_split_instances():
    rng = Random(7)
    for _ in range(20):
        field = (QQ, GF(5), GF(7))[rng.randrange(3)]
        d = rng.randint(1, 4)
        t = random_invertible_matrix(rng, field, d)
        a = conjugate_subspace(MatrixSubspace.diagonal_algebra(field, d), t)
        lines = eigenline_scalars(field, simultaneous_eigenlines(a))
        functionals = classify_subspace(a).eigenlines.values.rows
        # the lines span k^d
        assert rref(Matrix(field, list(lines), ncols=d)).rank == d
        # functionals are pairwise distinct and act as claimed
        assert len(set(functionals)) == d
        for line, mu in zip(lines, functionals):
            for m, scalar in zip(a.basis_matrices(), mu):
                assert m.apply(line) == tuple(scalar * x for x in line)
        # conjugating by the line matrix recovers the full diagonal algebra
        eta = Matrix.from_columns(field, lines)
        moved = conjugate_subspace(a, eta.inverse())
        assert moved == MatrixSubspace.diagonal_algebra(field, d)


# --- conjugation ------------------------------------------------------------


def test_conjugation_by_identity_fixes_subspace():
    a = MatrixSubspace.diagonal_algebra(QQ, 3)
    assert conjugate_subspace(a, Matrix.identity(QQ, 3)) == a


def test_conjugation_by_permutation_fixes_diagonal_algebra():
    a = MatrixSubspace.diagonal_algebra(QQ, 3)
    p = M(QQ, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert conjugate_subspace(a, p) == a


def test_conjugation_by_unipotent_moves_diagonal_algebra():
    a = MatrixSubspace.diagonal_algebra(QQ, 2)
    t = M(QQ, [[1, 1], [0, 1]])
    moved = conjugate_subspace(a, t)
    # basis computed by hand: t diag(a,b) t^-1 = [[a, b-a], [0, b]]
    expected = span(QQ, 2, [[[1, 0], [0, 1]], [[0, 1], [0, 1]]])
    assert moved == expected


def test_conjugation_rejects_singular_matrix():
    a = MatrixSubspace.diagonal_algebra(QQ, 2)
    with pytest.raises(SingularMatrix):
        conjugate_subspace(a, M(QQ, [[1, 2], [2, 4]]))


def test_classification_is_conjugation_invariant():
    rng = Random(3)
    for _ in range(30):
        field = (QQ, GF(5))[rng.randrange(2)]
        d = rng.randint(2, 3)
        a = random_subspace_for_cartan_test(rng, field, d)
        t = random_invertible_matrix(rng, field, d)
        assert (
            classify_subspace(conjugate_subspace(a, t)).status
            == classify_subspace(a).status
        )


# --- oracle agreement --------------------------------------------------------


def test_classifier_agrees_with_eigenline_enumeration_oracle():
    rng = Random(2024)
    for i in range(120):
        field = (GF(3), GF(5))[i % 2]
        d = rng.randint(1, 3)
        a = random_subspace_for_cartan_test(rng, field, d)
        verdict = classify_subspace(a)
        assert is_split(verdict) == diagonalizable_by_conjugation_oracle(a, d, field)


def test_eigenline_oracle_agrees_with_literal_gl_search():
    # anchor the enumeration oracle itself against the brute-force GL(2, 3) walk
    rng = Random(99)
    field = GF(3)
    for _ in range(25):
        a = random_subspace_for_cartan_test(rng, field, 2)
        assert gl_search_oracle_d2(a, field) == diagonalizable_by_conjugation_oracle(
            a, 2, field
        )


def test_closure_defect_debug_helper():
    assert subalgebra_closure_defect(MatrixSubspace.diagonal_algebra(QQ, 3)) is None
    swap_only = span(QQ, 2, [[[0, 1], [1, 0]]])
    assert subalgebra_closure_defect(swap_only) is not None
