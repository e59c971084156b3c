"""Deciding whether a matrix subspace is a Cartan subalgebra of gl_d.

A ``MatrixSubspace`` is the span of some d x d matrices. It keeps the
matrices it was given and builds its canonical form, a ``linalg.Subspace``
of k^(d^2) under row-major flattening, on first use only; the diagonal
algebra is built with it, as the coordinate subspace it is.

A split Cartan subspace is the diagonal algebra D(L) of its d common
eigenlines L, and one test decides whether a subspace is D(L) for given
lines L: ``spans_diagonal_algebra``, a rank read off the given matrices
alone, with no canonical form. It is the only such test, whoever
proposes the lines. ``simultaneous_eigenlines`` proposes them in one
pass. It refines k^d into blocks through the canonical basis matrices:
each block that is not yet a line is split by the eigenspaces of the next
matrix restricted to it, all read by ``linalg.eigenspaces`` (a scalar
restriction leaves the block whole), so a matrix's spectrum over all of
k^d is taken only while the one block is k^d. ``eigenspaces`` reads a
diagonal restriction on its face, and the restriction of a diagonal
matrix to a coordinate block is diagonal again, so the split of the
diagonal algebra, the fiber of every direct image f_*L in its label
basis, computes no minimal polynomial, root or null space. The lines it
ends with are then certified by ``spans_diagonal_algebra``, whatever the
restrictions were. A failure is named from the whole-space spectra, those
the refinement took and the rest computed once: Cartan only after a field
extension (a minimal polynomial is squarefree but does not split; a first
class verdict, not an error), or not Cartan, with a witness: wrong
dimension, a non-commuting basis pair, or a basis matrix that no
extension diagonalizes.
"""

from __future__ import annotations

from enum import Enum
from math import lcm
from typing import NamedTuple

from .errors import DimensionMismatch, NotSplitCartan, SingularMatrix
from .linalg import (
    Matrix,
    Subspace,
    eigenspaces,
    lift,
    min_poly,
    ratio_matrix,
    restrict,
    rref,
)
from .poly import Poly, nonsplit_witness, roots_in_field, squarefree_no_guard


class MatrixSubspace:
    """The span of some d x d matrices, kept as the matrices it was given.

    ``generators`` holds the matrices as given, which may be dependent.
    The canonical form, the reduced row echelon basis of the span under
    row-major flattening (``space``, ``basis_matrices``), is built on
    first use and kept: by the split of a fiber, by ``classify``, by
    ``==`` and ``hash``, and on the path that names a failure. Checking
    a fiber against known lines reads the generators alone
    (``spans_diagonal_algebra``), so it builds no canonical form. The
    diagonal algebra is given with its canonical form, a coordinate
    subspace, and with its basis matrices, its unit matrices, so it runs
    no elimination at all.
    """

    __slots__ = ("field", "ambient_dim", "generators", "_space", "_basis")

    def __init__(self, field, ambient_dim: int, matrices):
        generators = []
        for m in matrices:
            if not isinstance(m, Matrix):
                m = Matrix(field, m)
            if m.nrows != ambient_dim or m.ncols != ambient_dim:
                raise DimensionMismatch(
                    f"expected {ambient_dim}x{ambient_dim} matrices"
                )
            if m.field != field:
                raise DimensionMismatch(f"matrix over {m.field!r} in a subspace over {field!r}")
            generators.append(m)
        self.field = field
        self.ambient_dim = ambient_dim
        self.generators = tuple(generators)
        self._space = None
        self._basis = None

    @classmethod
    def diagonal_algebra(cls, field, d: int) -> "MatrixSubspace":
        """D(e_1, ..., e_d), given by its unit matrices E_tt and built on
        its face: E_tt is d zero rows with row t the unit row e_t, already
        canonical, and the flattened E_tt are the unit vectors of
        k^(d^2) at positions t (d + 1), so the canonical form is that
        coordinate subspace, with no elimination, and its basis matrices
        are the units themselves."""
        units = []
        for t in range(d):
            row = [0] * d
            row[t] = 1
            unit = [[0] * d for _ in range(d)]
            unit[t] = row
            units.append(Matrix._wrap(field, 1, unit, d))
        a = cls(field, d, units)
        a._space = Subspace.coordinate(field, d * d, range(0, d * d, d + 1))
        a._basis = a.generators
        return a

    @property
    def space(self) -> Subspace:
        """The canonical form of the span, built on first use."""
        if self._space is None:
            d = self.ambient_dim
            # each flattened matrix spans on its own scale
            rows = [[x for r in m.ints for x in r] for m in self.generators]
            self._space = Subspace._spanned(self.field, d * d, rows)
        return self._space

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_matrices(self) -> tuple:
        """The canonical basis, as matrices, built on first use."""
        if self._basis is None:
            d, echelon = self.ambient_dim, self.space.echelon
            rows = ([r[i * d : (i + 1) * d] for i in range(d)] for r in echelon.ints)
            self._basis = tuple(Matrix._make(self.field, echelon.den, m, d) for m in rows)
        return self._basis

    def coordinates_of(self, m: Matrix) -> tuple:
        return self.space.coordinates_of(m.flatten())

    def __eq__(self, other):
        return (
            isinstance(other, MatrixSubspace)
            and self.ambient_dim == other.ambient_dim
            and self.space == other.space
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.space))

    def __repr__(self):
        return f"MatrixSubspace(dim {self.dim} in M({self.ambient_dim}))"


class CartanStatus(Enum):
    SPLIT = "CartanSplit"
    NONSPLIT = "CartanNonSplit"
    NOT_CARTAN = "NotCartan"


class NotCartanReason(Enum):
    WRONG_DIMENSION = "WrongDimension"
    NOT_COMMUTATIVE = "NotCommutative"
    NOT_DIAGONALIZABLE = "NotDiagonalizable"


class CartanVerdict(NamedTuple):
    """Outcome of the Cartan test: the eigenlines when split, else a
    machine-checkable witness."""

    status: CartanStatus
    reason: NotCartanReason | None = None
    witness_pair: tuple[int, int] | None = None
    witness_index: int | None = None
    witness_poly: Poly | None = None
    eigenlines: EigenlineSet | None = None

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


def classify_subspace(a: MatrixSubspace) -> CartanVerdict:
    """Classify ``a`` in M(d), d its ``ambient_dim``, as split Cartan (with
    its eigenlines and their functionals), non-split Cartan, or not Cartan
    (with a witness): the outcome of ``simultaneous_eigenlines`` as a
    verdict. The functionals are read off the certified lines, on the
    canonical basis, for the report; they decide nothing."""
    try:
        lines = simultaneous_eigenlines(a)
    except NotSplitCartan as exc:
        return exc.verdict
    values = ratio_matrix(a.field, _eigenvalues(a.basis_matrices(), lines), a.ambient_dim)
    return CartanVerdict(CartanStatus.SPLIT, eigenlines=EigenlineSet(a.field, lines, values))


class EigenlineSet(NamedTuple):
    """The d common eigenlines of a split Cartan subspace with their
    functionals, as ``classify_subspace`` reports them.

    ``ints`` holds the lines as canonical integer lines (over GF(p) the
    leading-one residues, over Q the primitive vector with a positive
    leading entry) in a deterministic order, that of ``sort_lines``;
    downstream cover logic never relies on this order, matching the fact
    that the lines carry no intrinsic numbering. Row t of ``values`` gives,
    for each canonical basis matrix of the subspace, the scalar by which it
    acts on line t.
    """

    field: object
    ints: tuple
    values: Matrix


def sort_lines(lines) -> tuple:
    """Canonical integer lines in the order of their leading-one lines: by
    the position of the leading entry, then entrywise.

    A line x with leading entry c stands for x / c. Over GF(p) c is 1;
    over Q the entries x_j / c of all the lines compare as x_j (m / c),
    integers, for m the least common multiple of the leading entries.
    """
    keyed = []
    for line in lines:
        lead = next(filter(None, line))
        # the leading entry is the first nonzero one, so its index is the pivot
        keyed.append((line.index(lead), lead, line))
    m = lcm(*[lead for _k, lead, _line in keyed])
    keyed.sort(key=lambda k: (k[0], [x * (m // k[1]) for x in k[2]]))
    return tuple(line for _k, _lead, line in keyed)


def _eigenvalues(matrices, lines):
    """Per line, the ``(num, den)`` by which each matrix acts on it, as
    ``Matrix.map_line`` gives them, or None unless every line is an
    eigenline of every matrix."""
    values = []
    for line in lines:
        row = []
        for m in matrices:
            # m carries the line to num / den times image, or to zero
            num, den, image = m.map_line(line)
            if image is not None and image != line:
                return None
            row.append((num, den))
        values.append(row)
    return values


def spans_diagonal_algebra(a: MatrixSubspace, lines) -> bool:
    """Whether ``a`` is the diagonal algebra D(lines) of the d canonical
    integer lines ``lines``, read off the given matrices of ``a`` alone:
    every line l_t is an eigenline of every given matrix m, say
    m l_t = lambda_t(m) l_t, and the eigenvalue vectors
    (lambda_1(m), ..., lambda_d(m)) of the given matrices span k^d.

    This holds exactly when ``a`` = D(lines), and it proves the lines
    independent, so neither a canonical form nor independence is needed.
    For independent lines L, m -> (lambda_t(m))_t is an isomorphism from
    D(L) onto k^d, so matrices diagonal in L span D(L) exactly when their
    eigenvalue vectors span k^d. Dependent lines cannot pass: take a
    shortest relation sum_{t in S} c_t l_t = 0, all c_t nonzero, over two
    or more lines. For each m and s in S,
    sum_{t in S} c_t (lambda_t(m) - lambda_s(m)) l_t = 0 is a shorter
    relation, so its coefficients vanish: lambda_t(m) = lambda_s(m) on S,
    and the eigenvalue vectors, equal in the coordinates of S, span less
    than k^d. ``Matrix.map_line`` gives lambda_t(m) as num / den, den the
    denominator of m times the leading entry of l_t; these nonzero scales
    keep the rank, so the nums alone are ranked.
    """
    values = _eigenvalues(a.generators, lines)
    if values is None:
        return False
    nums = [[num for num, _den in row] for row in values]
    return rref(Matrix._make(a.field, 1, nums, len(a.generators))).rank == a.ambient_dim


def _refined_lines(a: MatrixSubspace, spectra: list):
    """Canonical integer lines of k^d refined by the basis matrices, or
    None unless the refinement ends in d lines.

    Starting from the full space, each basis matrix m, in canonical order,
    splits every block W that is not yet a line into the eigenspaces of
    its restriction m|_W (``linalg.restrict``, then ``linalg.eigenspaces``
    for every restriction, a diagonal or scalar one included), lifted back
    to k^d (``linalg.lift``), until all blocks are lines. A scalar
    restriction has one eigenspace and leaves W whole. ``eigenspaces``
    reads a diagonal restriction's spectrum off its diagonal, and on the
    diagonal algebra every restriction is diagonal: E_tt restricted to the
    coordinate block of the labels t, ..., d splits off line t, so the
    units E_11, ..., E_(d-1)(d-1) split blocks of sizes d, ..., 2 with no
    minimal polynomial, root search or null space. The eigenspaces of a
    diagonalizable m|_W add up to W, so the blocks always form a direct
    sum decomposition of k^d, and d blocks are d independent lines. When
    ``a`` is commutative, each block is a common eigenspace of the earlier
    matrices, so it is m-invariant, and the pieces are its intersections
    with the eigenspaces of m; otherwise they are only candidates, which
    ``spans_diagonal_algebra`` refuses. A restriction not diagonalizable
    over the field ends the refinement. The spectrum of each matrix taken
    while the one block is k^d is appended to ``spectra``; a restricted
    one is not the matrix's spectrum, so it is not.
    """
    d = a.ambient_dim
    blocks = [Subspace.full(a.field, d)]
    for m in a.basis_matrices():
        if len(blocks) == d:
            break
        refined = []
        for block in blocks:
            if block.dim == 1:
                refined.append(block)
                continue
            mp, roots, spaces = eigenspaces(restrict(m, block))
            if block.dim == d:
                spectra.append((mp, roots, spaces is not None))
            if spaces is None or any(mult > 1 for _num, _den, mult in roots):
                return None
            refined += [lift(block, space) for _lam, space in spaces]
        blocks = refined
    if len(blocks) != d:
        return None
    # the echelon row of a line is its canonical integer line
    return sort_lines(tuple(b.echelon.ints[0]) for b in blocks)


def _failure_verdict(a: MatrixSubspace, spectra: list) -> CartanVerdict:
    """Why ``a`` is not split Cartan: wrong dimension, else the first
    non-commuting basis pair, else the first basis matrix that no extension
    diagonalizes, else the non-split witness of the first minimal polynomial
    that does not split. ``spectra`` are ``(min_poly, roots, split)`` of the
    basis matrices the refinement reached; only the rest are computed here.
    """
    if a.dim != a.ambient_dim:
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
    nonsplit = None
    for i, m in enumerate(basis):
        if i == len(spectra):
            mp = min_poly(m)
            spectra.append((mp, *roots_in_field(mp)))
        mp, roots, split = spectra[i]
        # squarefreeness of the rootless part decides extension-diagonalizability;
        # prime fields are perfect, so the gcd test is sound in every degree
        if any(mult > 1 for _num, _den, mult in roots) or not (split or squarefree_no_guard(mp)):
            return CartanVerdict(
                CartanStatus.NOT_CARTAN,
                NotCartanReason.NOT_DIAGONALIZABLE,
                witness_index=i,
                witness_poly=mp,
            )
        if not split and nonsplit is None:
            nonsplit = (mp, roots)
    if nonsplit is None:
        raise AssertionError("commuting diagonalizable basis matrices must split")
    return CartanVerdict(CartanStatus.NONSPLIT, witness_poly=nonsplit_witness(*nonsplit))


def simultaneous_eigenlines(a: MatrixSubspace) -> tuple:
    """The d common eigenlines of a split Cartan subspace, as canonical
    integer lines in the order of ``sort_lines``, or raise
    ``NotSplitCartan`` with the verdict that names the failure.

    ``_refined_lines`` proposes the lines and ``spans_diagonal_algebra``
    certifies them on the given matrices: it holds exactly when ``a`` is
    their diagonal algebra, so split Cartan, and it refuses lines that are
    not independent, so a faulty refinement cannot pass. Conversely a
    split Cartan subspace is the diagonal algebra of its common
    eigenlines, which the refinement finds. A failure is named from the
    spectra the refinement computed (``_failure_verdict``). Deterministic:
    basis matrices are taken in canonical order and no randomization is
    used.
    """
    spectra = []
    lines = _refined_lines(a, spectra) if a.dim == a.ambient_dim else None
    if lines is None or not spans_diagonal_algebra(a, lines):
        raise NotSplitCartan(_failure_verdict(a, spectra))
    return lines


def conjugate_subspace(a: MatrixSubspace, t: Matrix) -> MatrixSubspace:
    """The subspace { t a t^-1 : a in ``a`` }, kept as the conjugated given
    matrices; its canonical form is built on first use."""
    if t.nrows != a.ambient_dim or t.ncols != a.ambient_dim:
        raise DimensionMismatch("conjugating matrix has wrong size")
    try:
        ti = t.inverse()
    except SingularMatrix:
        raise SingularMatrix("conjugating matrix is singular") from None
    return MatrixSubspace(a.field, a.ambient_dim, [t @ m @ ti for m in a.generators])
