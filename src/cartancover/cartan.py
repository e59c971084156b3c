"""Deciding whether a matrix subspace is a Cartan subalgebra of gl_d.

A subspace passes as split Cartan when it has dimension d, its basis
matrices pairwise commute, and every basis matrix is diagonalizable over
the working field. Commuting diagonalizable matrices admit a common
eigenbasis, and a d-dimensional simultaneously diagonal subspace must be
the full diagonal algebra in that basis, so the three checks together
certify a conjugation into the diagonal matrices. When some minimal
polynomial is squarefree but refuses to split, the subspace is Cartan
only after a field extension; that verdict is first class, not an error.

The split case yields the d common eigenlines and, for each line, the
functional reading off the scalar by which the subspace acts on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DimensionMismatch, NotSplitCartan, SingularMatrix
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

    field: object
    dimension: int
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


def simultaneous_eigenlines(a: MatrixSubspace) -> EigenlineSet:
    """Classify a subspace and split k^d into its d common eigenlines.

    Raises ``NotSplitCartan`` unless the subspace is split Cartan.
    """
    return split_eigenlines(a, classify_subspace(a, a.ambient_dim))


def split_eigenlines(a: MatrixSubspace, verdict: CartanVerdict) -> EigenlineSet:
    """Split k^d into the d common eigenlines of a split Cartan subspace.

    ``verdict`` is the subspace's ``classify_subspace`` verdict, already
    computed by the caller; anything but split raises ``NotSplitCartan``.
    Starting from the full space, each basis matrix refines every current
    block into its eigenspaces intersected with the block; a split Cartan
    subspace ends with d one-dimensional blocks. Deterministic: basis
    matrices are taken in canonical order and no randomization is used.
    """
    if not verdict.is_split():
        raise NotSplitCartan(verdict)
    d = a.ambient_dim
    field = a.field
    basis = a.basis_matrices()
    blocks = [Subspace.full(field, d)]
    for m in basis:
        if all(b.dim == 1 for b in blocks):
            break
        eigen = eigenspaces(m)
        refined = []
        for block in blocks:
            if block.dim == 1:
                refined.append(block)
                continue
            for _lam, space in eigen:
                piece = block.intersect(space)
                if piece.dim > 0:
                    refined.append(piece)
        blocks = refined
    if len(blocks) != d or any(b.dim != 1 for b in blocks):
        raise NotSplitCartan(verdict)

    lines = canonical_lines(field, (b.basis[0] for b in blocks))
    functionals = []
    for vec in lines:
        pivot = next(i for i, x in enumerate(vec) if x != 0)
        mu = []
        for m in basis:
            image = m.apply(vec)
            scalar = image[pivot]
            if tuple(scalar * x for x in vec) != image:
                raise NotSplitCartan(verdict)
            mu.append(scalar)
        functionals.append(tuple(mu))
    return EigenlineSet(field, d, lines, tuple(functionals))


def conjugate_subspace(a: MatrixSubspace, t: Matrix) -> MatrixSubspace:
    """Canonical form of { t a t^-1 : a in the subspace }."""
    if not t.is_square() or t.nrows != a.ambient_dim:
        raise DimensionMismatch("conjugating matrix has wrong size")
    try:
        return a.conjugated(t)
    except SingularMatrix:
        raise SingularMatrix("conjugating matrix is singular") from None
