"""Exact linear algebra over Q and GF(p), computed on plain Python ints.

Matrices are immutable row tuples of field scalars (``Fraction`` or
``Fp``), and those rows are what reports, instance files and equality
see. The arithmetic runs on an integer image of the rows, which a matrix
computes once, on first use: over GF(p) the least residues, over Q
integer rows over one common denominator. Products and applications
multiply images, and every elimination (``rref``, ``kernel``, ``solve``,
``Matrix.inverse``, ``min_poly``, ``eigenspaces`` and the subspaces) goes
through the one Gauss-Jordan loop ``_eliminate``, whose row reduction is
the only step that differs between the fields: one ``% p``, or the exact
Bareiss division. Fields convert at the boundary (``to_ints`` and
``from_ints``, where the leading-one normalisation happens), so field
scalars are built only for results. RREF and minimal polynomials are
unique, so the results are those of field-scalar elimination, value for
value.

Subspaces of k^n are kept in reduced row echelon form with leading ones,
which is a canonical form: two subspaces are equal exactly when their
stored bases coincide. Operands over different fields are refused with
``DimensionMismatch``.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .errors import DimensionMismatch, SingularMatrix
from .poly import Poly, roots_in_field

# --- integer kernels ----------------------------------------------------------
#
# An integer image is a pair (den, rows) of lists of ints. Over GF(p) the
# rows hold least residues and den is 1; over Q the rational entries are
# rows[i][j] / den. Image rows are never mutated in place.


def _eliminate(rows: list, ncols: int, p: int) -> tuple:
    """Gauss-Jordan elimination of integer rows in place; returns
    ``(pivots, scale)``, the pivot columns and the scale of the result.

    Over GF(p) (``p`` > 0) the rows hold residues. Each pivot row is
    scaled to a leading one, and clearing its column costs one ``% p`` per
    entry, so ``rows`` ends in reduced row echelon form and the scale is 1.

    Over Q (``p`` == 0) the rows hold integer multiples of rational rows,
    each row scaled on its own, which changes no echelon form. The
    elimination is fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22,
    1968, in the FFGJ form of Nakos-Turner-Williams): clearing column c
    with pivot a replaces every other row x by (a x - x_c y) / s, an exact
    division by the previous pivot s. Entries stay minors of the input, so
    they grow only polynomially. Every pivot entry ends equal to the last
    pivot, the returned scale, and the reduced row echelon form is
    ``rows / scale``.

    ``rows`` itself is rebound row by row; the row lists it held are not
    mutated, so rows shared with an integer image stay intact.
    """
    nrows = len(rows)
    if not p:
        # primitive rows: a common factor of a row would enter every minor
        for i, row in enumerate(rows):
            g = gcd(*row)
            if g > 1:
                rows[i] = [x // g for x in row]
    pivots = []
    scale = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        a = top[c]
        if p and a != 1:
            inv = pow(a, -1, p)
            top = rows[r] = [x * inv % p for x in top]
        for i, row in enumerate(rows):
            f = row[c]
            if i == r:
                continue
            if p:
                if f:
                    rows[i] = [(x - f * y) % p for x, y in zip(row, top)]
            elif f or a != scale:
                rows[i] = [(a * x - f * y) // scale for x, y in zip(row, top)]
        if not p:
            scale = a
        pivots.append(c)
    return pivots, scale


def _null_vectors(rows: list, ncols: int, p: int) -> list:
    """Integer vectors spanning the null space of the integer rows, which
    are consumed: one per free column of their elimination, ``scale``
    there and minus that column of the pivot rows at the pivots."""
    pivots, scale = _eliminate(rows, ncols, p)
    out = []
    for fc in sorted(set(range(ncols)).difference(pivots)):
        v = [0] * ncols
        v[fc] = scale
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc] % p if p else -row[fc]
        out.append(v)
    return out


def _product(left: list, right: list, ncols: int, p: int) -> list:
    """Integer rows of left . right, reduced mod p over GF(p)."""
    cols = list(zip(*right)) if right else [()] * ncols
    if p:
        return [[sum(map(mul, r, c)) % p for c in cols] for r in left]
    return [[sum(map(mul, r, c)) for c in cols] for r in left]


class Matrix:
    """An immutable matrix with exact entries over a fixed field."""

    __slots__ = ("field", "rows", "nrows", "ncols", "_image")

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
        self._image = None

    @classmethod
    def _trusted(cls, field, rows: tuple, ncols: int, image: tuple | None = None) -> "Matrix":
        """Internal constructor for computed results: ``rows`` is already a
        tuple of ``ncols``-long tuples of elements of ``field``, so neither
        coercion nor the shape check is repeated. ``image`` is the integer
        image when the computation already holds it."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        m._image = image
        return m

    def _ints(self) -> tuple:
        """The integer image ``(den, rows)``, computed on first use."""
        if self._image is None:
            images = [self.field.to_ints(r) for r in self.rows]
            den = lcm(*[d for d, _r in images])
            self._image = den, [[x * (den // d) for x in r] if d != den else r for d, r in images]
        return self._image

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

    def _check_field(self, other: "Matrix"):
        if self.field != other.field:
            raise DimensionMismatch(f"operands over {self.field!r} and {other.field!r}")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch("matrix product shape mismatch")
        self._check_field(other)
        (a, left), (b, right) = self._ints(), other._ints()
        rows = _product(left, right, other.ncols, self.field.characteristic)
        out = tuple(self.field.from_ints(r, a * b) for r in rows)
        return Matrix._trusted(self.field, out, other.ncols, (a * b, rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix sum shape mismatch")
        self._check_field(other)
        rows = tuple(
            tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)
        )
        return Matrix._trusted(self.field, rows, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

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
        b, v = self.field.to_ints(vec)
        a, rows = self._ints()
        return self.field.from_ints([sum(map(mul, r, v)) for r in rows], a * b)

    def line_image(self, vec) -> tuple:
        """``(lead, line)`` with m vec = lead line and ``line`` leading-one
        normalized, or ``(0, None)`` when m vec is zero."""
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length mismatch")
        field = self.field
        b, v = field.to_ints(vec)
        a, rows = self._ints()
        w = [sum(map(mul, r, v)) for r in rows]
        p = field.characteristic
        top = next((x for x in w if (x % p if p else x)), 0)
        if not top:
            return field.zero(), None
        return field.from_ints([top], a * b)[0], field.from_ints(w, top)

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
        """The right half of the RREF of [M | I]; singular when a pivot
        falls in that half."""
        if not self.is_square():
            raise DimensionMismatch("only square matrices invert")
        n = self.nrows
        den, image = self._ints()
        # [M | I] scaled to integers: over Q that is [den M | den I]
        rows = [[*r, *(den if i == j else 0 for j in range(n))] for i, r in enumerate(image)]
        pivots, scale = _eliminate(rows, 2 * n, self.field.characteristic)
        if n and pivots[-1] != n - 1:
            raise SingularMatrix("matrix is singular")
        right = [r[n:] for r in rows]
        out = tuple(self.field.from_ints(r, scale) for r in right)
        return Matrix._trusted(self.field, out, n, (scale, right))

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


class RrefResult(NamedTuple):
    matrix: Matrix
    rank: int
    pivots: tuple


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form with leading ones; unique for each matrix."""
    rows = list(m._ints()[1])
    pivots, scale = _eliminate(rows, m.ncols, m.field.characteristic)
    out = tuple(m.field.from_ints(r, scale) for r in rows)
    return RrefResult(Matrix._trusted(m.field, out, m.ncols, (scale, rows)), len(pivots), tuple(pivots))


class Subspace:
    """A linear subspace of k^n in canonical (RREF, leading-one) form."""

    __slots__ = ("field", "ambient", "basis", "_image")

    def __init__(self, field, ambient: int, vectors):
        rows = []
        for v in vectors:
            ints = field.to_ints(v)[1]
            if len(ints) != ambient:
                raise DimensionMismatch("spanning vector has wrong length")
            rows.append(ints)
        self._span(field, ambient, rows)

    @classmethod
    def _spanned(cls, field, ambient: int, rows: list) -> "Subspace":
        """The span of integer rows: residues over GF(p), integer multiples
        of rational vectors over Q. ``rows`` is consumed."""
        space = cls.__new__(cls)
        space._span(field, ambient, rows)
        return space

    def _span(self, field, ambient: int, rows: list):
        pivots, scale = _eliminate(rows, ambient, field.characteristic)
        del rows[len(pivots) :]
        self.field = field
        self.ambient = ambient
        self.basis = tuple(field.from_ints(r, scale) for r in rows)
        # the basis as an integer image: the eliminated rows over their scale
        self._image = (scale, rows)

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
        """Residual of ``vec`` after elimination against the basis.

        The basis rows b_i are leading-one and zero at each other's pivots,
        so the residual is v - sum_i v[pivot_i] b_i, one product with the
        image rows, which are scale * b_i.
        """
        if len(vec) != self.ambient:
            raise DimensionMismatch("vector length mismatch")
        den, v = self.field.to_ints(vec)
        scale, basis = self._image
        p = self.field.characteristic
        coeffs = [[v[q] for q in self.pivots()]]
        spent = _product(coeffs, basis, self.ambient, p)[0]
        residual = [scale * x - y for x, y in zip(v, spent)]
        return self.field.from_ints(residual, den * scale)

    def contains(self, vec) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    def coordinates_of(self, vec) -> tuple:
        """Coefficients of ``vec`` in the canonical basis; requires membership."""
        if not self.contains(vec):
            raise ValueError("vector is not in the subspace")
        return tuple(self.field.coerce(vec[p]) for p in self.pivots())

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the null space of the stacked coefficient
        constraints sum x_i a_i - sum y_j b_j = 0."""
        self._check_compatible(other)
        field = self.field
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(field, self.ambient)
        p = field.characteristic
        a, b = self._image[1], other._image[1]
        negated = [[-x % p if p else -x for x in r] for r in b]
        constraints = [list(col) for col in zip(*a, *negated)]
        # x . a for each null vector (x, y) of the columns a_i, -b_j
        coeffs = [v[: len(a)] for v in _null_vectors(constraints, len(a) + len(b), p)]
        return Subspace._spanned(field, self.ambient, _product(coeffs, a, self.ambient, p))

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
    vecs = _null_vectors(list(m._ints()[1]), m.ncols, m.field.characteristic)
    return Subspace._spanned(m.field, m.ncols, vecs)


def solve(m: Matrix, b) -> tuple | None:
    """One solution of m x = b, or None when inconsistent."""
    field = m.field
    if len(b) != m.nrows:
        raise DimensionMismatch("right-hand side length mismatch")
    b_den, rhs = field.to_ints(b)
    den, image = m._ints()
    # (image / den) x = rhs / b_den, cleared of both denominators
    rows = [[*(x * b_den for x in r), y * den] for r, y in zip(image, rhs)]
    n = m.ncols
    pivots, scale = _eliminate(rows, n + 1, field.characteristic)
    if n in pivots:
        return None
    x = [0] * n
    for row, pc in zip(rows, pivots):
        x[pc] = row[n]
    return field.from_ints(x, scale)


def min_poly(m: Matrix) -> Poly:
    """Monic minimal polynomial, via the first dependence among I, M, M^2, ...

    The flattened integer powers P_k = N^k of the image N = den M, for k up
    to d, are the columns of one elimination. Once M^k depends on lower
    powers so do all higher ones, so the pivots are 0, ..., k-1 and column
    k of the RREF reads P_k = sum_j c_j P_j. With M^k = P_k / den^k that is
    the monic relation M^k = sum_j c_j den^(j-k) M^j.
    """
    if not m.is_square():
        raise DimensionMismatch("minimal polynomial needs a square matrix")
    field, d = m.field, m.nrows
    p = field.characteristic
    den, image = m._ints()
    power = [[int(i == j) for j in range(d)] for i in range(d)]
    flat = [[x for r in power for x in r]]
    for _ in range(d):
        power = _product(power, image, d, p)
        flat.append([x for r in power for x in r])
    rows = [list(col) for col in zip(*flat)]
    pivots, scale = _eliminate(rows, d + 1, p)
    k = len(pivots)
    lead = scale * den**k
    coeffs = [-rows[j][k] * den**j for j in range(k)] + [lead]
    return Poly(field, field.from_ints(coeffs, lead))


def eigenspaces(m: Matrix):
    """The spectrum of m: ``(min_poly, roots, spaces)``, with the roots of
    the minimal polynomial in the field as ``roots_in_field`` gives them.

    When the minimal polynomial splits, ``spaces`` pairs each root with its
    canonical eigenspace, and the dimensions add up to d exactly when m is
    diagonalizable over the field; otherwise ``spaces`` is None. Each
    eigenspace is the null space of the image with the root subtracted on
    its diagonal.
    """
    mp = min_poly(m)
    roots, split = roots_in_field(mp)
    if not split:
        return mp, roots, None
    field = m.field
    p = field.characteristic
    den, image = m._ints()
    spaces = []
    for lam, _mult in roots:
        # lam = a / b over Q: den b (m - lam I) = b image - den a I
        b, (a,) = field.to_ints([lam])
        rows = [[x * b for x in r] for r in image]
        for i, row in enumerate(rows):
            row[i] = (row[i] - den * a) % p if p else row[i] - den * a
        spaces.append((lam, Subspace._spanned(field, m.ncols, _null_vectors(rows, m.ncols, p))))
    return mp, roots, tuple(spaces)
