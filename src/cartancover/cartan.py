"""Deciding whether a matrix subspace is a Cartan subalgebra of gl_d.

A d-dimensional subspace that is diagonal in d independent lines is the
whole diagonal algebra of those lines, so it is split Cartan; conversely a
split Cartan subspace is the diagonal algebra of its d common eigenlines.
``simultaneous_eigenlines`` finds those lines by refining k^d through the
eigenspaces of the basis matrices and then checks that the subspace is
diagonal in them, so the split is its own certificate and yields, for
each line, the functional reading off the scalar by which the subspace
acts on it.

``classify_subspace`` names every outcome: split Cartan, Cartan only after
a field extension (some minimal polynomial is squarefree but refuses to
split; that verdict is first class, not an error), or not Cartan, with a
witness: wrong dimension, a non-commuting basis pair, or a basis matrix
that no extension diagonalizes. The split runs it only to name a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DimensionMismatch, NonSplitError, NotSplitCartan, SingularMatrix
from .linalg import Matrix, MatrixSubspace, Subspace, eigenspaces, min_poly
from .poly import Poly, nonsplit_witness, roots_in_field, squarefree_no_guard


class CartanStatus(Enum):
    SPLIT = "CartanSplit"
    NONSPLIT = "CartanNonSplit"
    NOT_CARTAN = "NotCartan"


class NotCartanReason(Enum):
    WRONG_DIMENSION = "WrongDimension"
    NOT_COMMUTATIVE = "NotCommutative"
    NOT_DIAGONALIZABLE = "NotDiagonalizable"


@dataclass(frozen=True)
class CartanVerdict:
    """Outcome of the Cartan test, with a machine-checkable witness on failure."""

    status: CartanStatus
    reason: NotCartanReason | None = None
    witness_pair: tuple[int, int] | None = None
    witness_index: int | None = None
    witness_poly: Poly | None = None

    def is_split(self) -> bool:
        return self.status is CartanStatus.SPLIT

    def __str__(self):
        if self.status is CartanStatus.SPLIT:
            return "CartanSplit"
        if self.status is CartanStatus.NONSPLIT:
            return f"CartanNonSplit (witness {self.witness_poly})"
        if self.reason is NotCartanReason.WRONG_DIMENSION:
            return "NotCartan: WrongDimension"
        if self.reason is NotCartanReason.NOT_COMMUTATIVE:
            i, j = self.witness_pair
            return f"NotCartan: NotCommutative (basis pair {i}, {j})"
        return (
            f"NotCartan: NotDiagonalizable (basis {self.witness_index}, "
            f"witness {self.witness_poly})"
        )


def classify_subspace(a: MatrixSubspace, d: int) -> CartanVerdict:
    """Classify a subspace of d x d matrices as split Cartan, non-split Cartan,
    or not Cartan, with a witness in the last case.

    Diagonalizability of a basis matrix is read off its minimal polynomial:
    split with simple roots means diagonalizable here, squarefree without
    splitting means diagonalizable only after an extension, and anything
    else is a genuine obstruction.
    """
    if a.ambient_dim != d:
        raise DimensionMismatch(
            f"subspace of M({a.ambient_dim}) tested against d = {d}"
        )
    if a.dim != d:
        return CartanVerdict(CartanStatus.NOT_CARTAN, NotCartanReason.WRONG_DIMENSION)
    basis = a.basis_matrices()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if basis[i] @ basis[j] != basis[j] @ basis[i]:
                return CartanVerdict(
                    CartanStatus.NOT_CARTAN,
                    NotCartanReason.NOT_COMMUTATIVE,
                    witness_pair=(i, j),
                )
    witness = None
    for i, m in enumerate(basis):
        mp = min_poly(m)
        roots, split = roots_in_field(mp)
        if any(mult > 1 for _, mult in roots):
            return CartanVerdict(
                CartanStatus.NOT_CARTAN,
                NotCartanReason.NOT_DIAGONALIZABLE,
                witness_index=i,
                witness_poly=mp,
            )
        if split:
            continue
        # squarefreeness of the rootless part decides extension-diagonalizability;
        # prime fields are perfect, so the gcd test is sound in every degree
        if not squarefree_no_guard(mp):
            return CartanVerdict(
                CartanStatus.NOT_CARTAN,
                NotCartanReason.NOT_DIAGONALIZABLE,
                witness_index=i,
                witness_poly=mp,
            )
        if witness is None:
            witness = nonsplit_witness(mp)
    if witness is not None:
        return CartanVerdict(CartanStatus.NONSPLIT, witness_poly=witness)
    return CartanVerdict(CartanStatus.SPLIT)


@dataclass(frozen=True)
class EigenlineSet:
    """The d common eigenlines of a split Cartan subspace.

    Lines are leading-one normalized and stored in a deterministic order
    (by leading coordinate position, then entrywise); downstream cover
    logic never relies on this order, matching the fact that the lines
    carry no intrinsic numbering. ``functionals[t]`` gives, for each
    canonical basis matrix of the subspace, the scalar by which it acts
    on line ``t``.
    """

    lines: tuple
    functionals: tuple


def _normalize_line(vec):
    lead = next((x for x in vec if x != 0), None)
    if lead is None:
        raise ValueError("zero vector cannot span a line")
    return tuple(x / lead for x in vec)


def _line_sort_key(field, vec):
    pivot = next(i for i, x in enumerate(vec) if x != 0)
    return (pivot, tuple(field.element_key(x) for x in vec))


def canonical_lines(field, vectors) -> tuple:
    """The lines spanned by nonzero ``vectors``, leading-one normalized and
    in the deterministic order of ``EigenlineSet.lines``."""
    lines = [_normalize_line(v) for v in vectors]
    lines.sort(key=lambda v: _line_sort_key(field, v))
    return tuple(lines)


def diagonal_functionals(a: MatrixSubspace, lines):
    """The functionals of ``a`` on ``lines`` when ``a`` is their diagonal
    algebra, else None.

    ``lines`` are d independent leading-one vectors of k^d. ``a`` is the
    diagonal algebra D(lines) exactly when it has dimension d and every
    line is an eigenline of every canonical basis matrix: it then lies in
    D(lines), which has dimension d. ``functionals[t]`` lists the scalars
    by which the basis matrices act on line t.
    """
    if a.dim != a.ambient_dim:
        return None
    basis = a.basis_matrices()
    functionals = []
    for line in lines:
        pivot = next(i for i, x in enumerate(line) if x != 0)
        mu = []
        for m in basis:
            image = m.apply(line)
            scalar = image[pivot]
            if any(y != scalar * x for x, y in zip(line, image)):
                return None
            mu.append(scalar)
        functionals.append(tuple(mu))
    return tuple(functionals)


def _refined_lines(a: MatrixSubspace):
    """Canonical lines of k^d refined by the eigenspaces of the basis
    matrices, or None unless the refinement ends in d lines.

    Starting from the full space, each basis matrix, in canonical order,
    splits every block into its eigenspaces intersected with the block,
    until all blocks are lines. Eigenspaces of distinct eigenvalues are
    independent, so the blocks always form a direct sum and d lines are
    independent.
    """
    d = a.ambient_dim
    blocks = [Subspace.full(a.field, d)]
    for m in a.basis_matrices():
        if all(b.dim == 1 for b in blocks):
            break
        try:
            eigen = eigenspaces(m)
        except NonSplitError:
            return None
        refined = []
        for block in blocks:
            pieces = [block] if block.dim == 1 else [block.intersect(s) for _lam, s in eigen]
            refined += [piece for piece in pieces if piece.dim > 0]
        blocks = refined
    if len(blocks) != d or any(b.dim != 1 for b in blocks):
        return None
    return canonical_lines(a.field, (b.basis[0] for b in blocks))


def simultaneous_eigenlines(a: MatrixSubspace) -> EigenlineSet:
    """Split k^d into the d common eigenlines of a split Cartan subspace.

    The split certifies itself: when ``a`` has dimension d and is diagonal
    in the d independent lines of ``_refined_lines`` (``diagonal_functionals``),
    it is their whole diagonal algebra, so split Cartan. Conversely a split
    Cartan subspace is the diagonal algebra of its common eigenlines, which
    the refinement finds. Otherwise ``classify_subspace`` runs, only to name
    the failure in the raised ``NotSplitCartan``. Deterministic: basis
    matrices are taken in canonical order and no randomization is used.
    """
    d = a.ambient_dim
    lines = _refined_lines(a) if a.dim == d else None
    functionals = None if lines is None else diagonal_functionals(a, lines)
    if functionals is None:
        raise NotSplitCartan(classify_subspace(a, d))
    return EigenlineSet(lines, functionals)


def conjugate_subspace(a: MatrixSubspace, t: Matrix) -> MatrixSubspace:
    """Canonical form of { t a t^-1 : a in the subspace }."""
    if not t.is_square() or t.nrows != a.ambient_dim:
        raise DimensionMismatch("conjugating matrix has wrong size")
    try:
        return a.conjugated(t)
    except SingularMatrix:
        raise SingularMatrix("conjugating matrix is singular") from None
