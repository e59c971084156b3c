"""Exact linear algebra over Q and GF(p).

Matrices are immutable row tuples of field scalars. Subspaces of k^n are
kept in reduced row echelon form with leading ones, which is a canonical
form: two subspaces are equal exactly when their stored bases coincide.
Subspaces of d x d matrices are handled by flattening to k^(d^2) row-major.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, SingularMatrix
from .poly import Poly, roots_in_field


class Matrix:
    """An immutable matrix with exact entries over a fixed field."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows, ncols: int | None = None):
        rows = tuple(tuple(field.coerce(x) for x in r) for r in rows)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise DimensionMismatch("ragged matrix rows")
        elif ncols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def _trusted(cls, field, rows: tuple, ncols: int) -> "Matrix":
        """Internal constructor for computed results: ``rows`` is already a
        tuple of ``ncols``-long tuples of elements of ``field``, so neither
        coercion nor the shape check is repeated."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        rows = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        return cls._trusted(field, rows, n)

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        row = (field.zero(),) * ncols
        return cls._trusted(field, (row,) * nrows, ncols)

    @classmethod
    def from_columns(cls, field, cols) -> "Matrix":
        cols = [tuple(c) for c in cols]
        n = len(cols[0])
        return cls(field, [[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch("matrix product shape mismatch")
        ocols = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        zero = self.field.zero()
        out = tuple(
            tuple(sum((a * b for a, b in zip(r, c) if a != 0), zero) for c in ocols)
            for r in self.rows
        )
        return Matrix._trusted(self.field, out, other.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix sum shape mismatch")
        rows = tuple(
            tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)
        )
        return Matrix._trusted(self.field, rows, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-self.field.one())

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        rows = tuple(tuple(c * a for a in r) for r in self.rows)
        return Matrix._trusted(self.field, rows, self.ncols)

    def __neg__(self) -> "Matrix":
        return self.scale(-self.field.one())

    def transpose(self) -> "Matrix":
        return Matrix._trusted(self.field, tuple(zip(*self.rows)), self.nrows)

    def apply(self, vec) -> tuple:
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length mismatch")
        zero = self.field.zero()
        return tuple(sum((a * x for a, x in zip(r, vec) if a != 0), zero) for r in self.rows)

    def flatten(self) -> tuple:
        return tuple(x for r in self.rows for x in r)

    @classmethod
    def unflatten(cls, field, vec, nrows: int, ncols: int) -> "Matrix":
        if len(vec) != nrows * ncols:
            raise DimensionMismatch("flattened length mismatch")
        rows = tuple(tuple(vec[i * ncols : (i + 1) * ncols]) for i in range(nrows))
        return cls._trusted(field, rows, ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise DimensionMismatch("only square matrices invert")
        n = self.nrows
        field = self.field
        aug = [list(r) + list(ir) for r, ir in zip(self.rows, Matrix.identity(field, n).rows)]
        for col in range(n):
            piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if piv is None:
                raise SingularMatrix("matrix is singular")
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = field.one() / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return Matrix._trusted(field, tuple(tuple(r[n:]) for r in aug), n)

    def is_invertible(self) -> bool:
        try:
            self.inverse()
            return True
        except SingularMatrix:
            return False

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.render(x) for x in r) for r in self.rows)
        return f"Matrix[{body}]"


@dataclass(frozen=True)
class RrefResult:
    matrix: Matrix
    rank: int
    pivots: tuple


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form with leading ones; unique for each matrix."""
    field = m.field
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.one() / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    rows = tuple(tuple(row) for row in rows)
    return RrefResult(Matrix._trusted(field, rows, ncols), len(pivots), tuple(pivots))


class Subspace:
    """A linear subspace of k^n in canonical (RREF, leading-one) form."""

    __slots__ = ("field", "ambient", "basis")

    def __init__(self, field, ambient: int, vectors):
        vectors = [tuple(field.coerce(x) for x in v) for v in vectors]
        if any(len(v) != ambient for v in vectors):
            raise DimensionMismatch("spanning vector has wrong length")
        if vectors:
            red = rref(Matrix(field, vectors, ncols=ambient))
            basis = tuple(red.matrix.rows[: red.rank])
        else:
            basis = ()
        self.field = field
        self.ambient = ambient
        self.basis = basis

    @classmethod
    def zero(cls, field, ambient: int) -> "Subspace":
        return cls(field, ambient, ())

    @classmethod
    def full(cls, field, ambient: int) -> "Subspace":
        return cls(field, ambient, Matrix.identity(field, ambient).rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivots(self) -> tuple:
        out = []
        for row in self.basis:
            out.append(next(j for j, x in enumerate(row) if x != 0))
        return tuple(out)

    def reduce(self, vec) -> tuple:
        """Residual of ``vec`` after elimination against the basis."""
        v = [self.field.coerce(x) for x in vec]
        if len(v) != self.ambient:
            raise DimensionMismatch("vector length mismatch")
        for row, p in zip(self.basis, self.pivots()):
            c = v[p]
            if c != 0:
                v = [a - c * b for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, vec) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    def coordinates_of(self, vec) -> tuple:
        """Coefficients of ``vec`` in the canonical basis; requires membership."""
        v = tuple(self.field.coerce(x) for x in vec)
        coords = tuple(v[p] for p in self.pivots())
        if not self.contains(v):
            raise ValueError("vector is not in the subspace")
        return coords

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of stacked coefficient constraints."""
        self._check_compatible(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient)
        cols = [list(b) for b in self.basis] + [[-x for x in b] for b in other.basis]
        constraint = Matrix.from_columns(self.field, cols)
        vecs = []
        for coeffs in kernel(constraint).basis:
            a = coeffs[: self.dim]
            vec = [self.field.zero()] * self.ambient
            for c, row in zip(a, self.basis):
                if c != 0:
                    vec = [x + c * y for x, y in zip(vec, row)]
            vecs.append(vec)
        return Subspace(self.field, self.ambient, vecs)

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field or self.ambient != other.ambient:
            raise DimensionMismatch("subspaces live in different ambient spaces")

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of the null space of ``m``."""
    red = rref(m)
    piv = set(red.pivots)
    free = [c for c in range(m.ncols) if c not in piv]
    zero, one = m.field.zero(), m.field.one()
    vecs = []
    for fc in free:
        v = [zero] * m.ncols
        v[fc] = one
        for i, pc in enumerate(red.pivots):
            v[pc] = -red.matrix.rows[i][fc]
        vecs.append(v)
    return Subspace(m.field, m.ncols, vecs)


def solve(m: Matrix, b) -> tuple | None:
    """One solution of m x = b, or None when inconsistent."""
    field = m.field
    b = [field.coerce(x) for x in b]
    if len(b) != m.nrows:
        raise DimensionMismatch("right-hand side length mismatch")
    aug = Matrix(field, [list(r) + [bb] for r, bb in zip(m.rows, b)], ncols=m.ncols + 1)
    red = rref(aug)
    if m.ncols in red.pivots:
        return None
    x = [field.zero()] * m.ncols
    for i, pc in enumerate(red.pivots):
        x[pc] = red.matrix.rows[i][m.ncols]
    return tuple(x)


class MatrixSubspace:
    """A subspace of d x d matrices, canonical under row-major flattening."""

    __slots__ = ("field", "ambient_dim", "space")

    def __init__(self, field, ambient_dim: int, matrices):
        vecs = []
        for m in matrices:
            if not isinstance(m, Matrix):
                m = Matrix(field, m)
            if m.nrows != ambient_dim or m.ncols != ambient_dim:
                raise DimensionMismatch(
                    f"expected {ambient_dim}x{ambient_dim} matrices"
                )
            vecs.append(m.flatten())
        self.field = field
        self.ambient_dim = ambient_dim
        self.space = Subspace(field, ambient_dim * ambient_dim, vecs)

    @classmethod
    def _from_space(cls, field, ambient_dim: int, space: Subspace) -> "MatrixSubspace":
        out = cls.__new__(cls)
        out.field = field
        out.ambient_dim = ambient_dim
        out.space = space
        return out

    @classmethod
    def diagonal_algebra(cls, field, d: int) -> "MatrixSubspace":
        zero, one = field.zero(), field.one()
        mats = []
        for i in range(d):
            rows = [[one if (r == i and c == i) else zero for c in range(d)] for r in range(d)]
            mats.append(Matrix(field, rows))
        return cls(field, d, mats)

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_matrices(self) -> tuple:
        d = self.ambient_dim
        return tuple(Matrix.unflatten(self.field, v, d, d) for v in self.space.basis)

    def contains(self, m: Matrix) -> bool:
        return self.space.contains(m.flatten())

    def coordinates_of(self, m: Matrix) -> tuple:
        return self.space.coordinates_of(m.flatten())

    def conjugated(self, t: Matrix) -> "MatrixSubspace":
        """Canonical form of { t a t^-1 } over the stored basis."""
        if t.nrows != self.ambient_dim or t.ncols != self.ambient_dim:
            raise DimensionMismatch("conjugating matrix has wrong size")
        ti = t.inverse()
        return MatrixSubspace(
            self.field,
            self.ambient_dim,
            [t @ a @ ti for a in self.basis_matrices()],
        )

    def intersect(self, other: "MatrixSubspace") -> "MatrixSubspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return MatrixSubspace._from_space(
            self.field, self.ambient_dim, self.space.intersect(other.space)
        )

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


def min_poly(m: Matrix) -> Poly:
    """Monic minimal polynomial, via the first dependence among I, M, M^2, ...

    One incremental elimination: each flattened power M^k is reduced
    against the leading-one rows kept from I, ..., M^(k-1), and the row
    carries its coefficients in I, ..., M^k along. The first zero residue
    is a relation with coefficient one on M^k, the monic minimal
    polynomial.
    """
    if not m.is_square():
        raise DimensionMismatch("minimal polynomial needs a square matrix")
    field = m.field
    d = m.nrows
    zero, one = field.zero(), field.one()
    reduced = []  # (pivot, leading-one residue, its coefficients in the powers)
    power = Matrix.identity(field, d)
    for k in range(d + 1):
        if k:
            power = power @ m
        vec = list(power.flatten())
        coeffs = [zero] * (d + 1)
        coeffs[k] = one
        for pivot, row, row_coeffs in reduced:
            c = vec[pivot]
            if c != 0:
                vec = [a - c * b for a, b in zip(vec, row)]
                coeffs = [a - c * b for a, b in zip(coeffs, row_coeffs)]
        pivot = next((j for j, x in enumerate(vec) if x != 0), None)
        if pivot is None:
            return Poly(field, coeffs)
        inv = one / vec[pivot]
        reduced.append((pivot, [x * inv for x in vec], [x * inv for x in coeffs]))
    raise AssertionError("minimal polynomial must have degree <= d")


def eigenspaces(m: Matrix):
    """The spectrum of m: ``(min_poly, roots, spaces)``, with the roots of
    the minimal polynomial in the field as ``roots_in_field`` gives them.

    When the minimal polynomial splits, ``spaces`` pairs each root with its
    canonical eigenspace, and the dimensions add up to d exactly when m is
    diagonalizable over the field; otherwise ``spaces`` is None.
    """
    mp = min_poly(m)
    roots, split = roots_in_field(mp)
    if not split:
        return mp, roots, None
    ident = Matrix.identity(m.field, m.nrows)
    return mp, roots, tuple((lam, kernel(m - ident.scale(lam))) for lam, _mult in roots)
