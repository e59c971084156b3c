"""Exact linear algebra over Q and GF(p), computed on plain Python ints.

A matrix holds one form, its canonical integer form: integer rows
``ints`` over a positive ``den``, the entries being ``ints[i][j] / den``.
Over GF(p) the ints are least residues and ``den`` is 1; over Q ``den`` is
the least common denominator, so gcd(den, every entry) = 1. The form is
unique, so equality reads it. Products multiply these rows (``_product``;
``restrict`` reads a matrix on a subspace's echelon basis with one, and
``lift`` carries a subspace of that basis's coordinates back with
another), and every elimination (``rref``, ``kernel``, ``solve``,
``Matrix.inverse``, ``min_poly``, ``eigenspaces``, the subspaces and the
spans ``lift`` returns) goes through the one Gauss-Jordan loop
``_eliminate``, whose row reduction is the only step that differs between
the fields: one ``% p``, or the exact Bareiss division. RREF and minimal
polynomials are unique, so the results are those of field-scalar
elimination, value for value.

Some inputs are read on their face, with no product or elimination, and
give the same canonical forms: a line with one nonzero entry maps to that
column of the matrix (``Matrix.map_line``), a coordinate subspace, whose
echelon rows are unit vectors, restricts a matrix to the submatrix at its
pivots (``restrict``) and lifts a coordinate subspace of its coordinates
to the unit vectors at its pivots (``lift``), a monomial matrix inverts
by transposing its pattern (``Matrix.inverse``), and a diagonal matrix
has its spectrum on its diagonal (``eigenspaces``). The direct image of a
line bundle has monomial transitions and the diagonal algebra as its
Cartan bundle, so its round trip meets only these. Each reading is
chosen by counting zeros with ``count`` at C level, so a dense input pays
no scan in Python.

A subspace of k^n holds the canonical form of its reduced row echelon
basis. A line of k^n is a canonical integer line, a tuple: over GF(p)
the leading-one residues, over Q the primitive vector with a positive
leading entry (``Matrix.map_line`` maps them).
Values enter and leave these forms without field scalars: ``Matrix``
reads its entries (instance-file ints and strings as well as scalars)
straight into the form with ``to_ints``, and reports write it with
``render_ints``. Scalars are built (``from_ints``) only where a caller
asks for them: the lazy ``Matrix.rows`` and ``Subspace.basis`` and the
results returned as scalars. Operands over different fields are refused
with ``DimensionMismatch``; an entry from another field is a
``ParseError``.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, lcm
from operator import countOf, itemgetter, mul
from typing import NamedTuple

from .errors import DimensionMismatch, ParseError, SingularMatrix
from .poly import Poly, coefficient_product, roots_in_field

# --- integer kernels ----------------------------------------------------------
#
# Integer rows are lists of ints: residues over GF(p), over Q integer
# multiples of rational rows. Rows held by a matrix are never mutated.


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
    mutated, so rows shared with a matrix stay intact.
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


def _is_coordinate(space: "Subspace") -> bool:
    """Whether the echelon rows of ``space`` are unit vectors, counted at
    C level: a nonzero echelon row with n - 1 zeros is its leading one."""
    return set(map(countOf, space.echelon.ints, repeat(0))) == {space.ambient - 1}


def restrict(m: "Matrix", space: "Subspace") -> "Matrix":
    """m|_W for a subspace W of k^n: the w x w matrix whose column i is
    m e_i read at W's pivots, for e_i the echelon basis of W.

    The e_i are leading-one and zero at each other's pivots, so when W is
    m-invariant, m e_i = sum_j (m e_i)[pivot_j] e_j and this is the matrix
    of m on W in that basis. Entry (j, i) is row pivot_j of m times echelon
    row i, over ``m.den * W.echelon.den``. On all of k^n it is m itself.

    A coordinate W is read on its face: its e_i are unit vectors, so m|_W
    is the submatrix of m at W's pivots, with no product.
    """
    if space.dim == space.ambient:
        return m
    echelon = space.echelon
    pivots = space.pivots()
    at_pivots = [m.ints[q] for q in pivots]
    if _is_coordinate(space):
        rows = [[r[q] for q in pivots] for r in at_pivots]
        return Matrix._make(m.field, m.den, rows, space.dim)
    rows = _product(at_pivots, list(zip(*echelon.ints)), space.dim, m.field.characteristic)
    return Matrix._make(m.field, m.den * echelon.den, rows, space.dim)


def lift(space: "Subspace", sub: "Subspace") -> "Subspace":
    """The subspace of k^n whose coordinates in the echelon basis of
    ``space`` span ``sub``: one product of their echelon rows. On all of
    k^n that is ``sub``, and for the whole coordinate space ``space``.

    When both are coordinate subspaces it is read on its face: the unit
    vectors at the pivots of ``space`` indexed by the pivots of ``sub``,
    with no product and no elimination.
    """
    if space.dim == space.ambient:
        return sub
    if sub.dim == sub.ambient:
        return space
    if _is_coordinate(space) and _is_coordinate(sub):
        at = space.pivots()
        return Subspace.coordinate(space.field, space.ambient, [at[q] for q in sub.pivots()])
    p = space.field.characteristic
    rows = _product(sub.echelon.ints, space.echelon.ints, space.ambient, p)
    return Subspace._spanned(space.field, space.ambient, rows)


class Matrix:
    """An immutable matrix over a fixed field, in canonical integer form."""

    __slots__ = ("field", "den", "ints", "nrows", "ncols")

    def __init__(self, field, rows, ncols: int | None = None):
        """The matrix with the given rows of entries: field scalars, ints or
        instance-file strings, read straight into the canonical form."""
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise DimensionMismatch("ragged matrix rows")
        elif ncols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        # an entry from another field is malformed here, not a foreign operand
        self.den, flat = field.to_ints([x for r in rows for x in r], ParseError)
        self.field = field
        self.ints = [flat[i * ncols : (i + 1) * ncols] for i in range(len(rows))]
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def _make(cls, field, den: int, ints: list, ncols: int) -> "Matrix":
        """The matrix ``ints / den`` for lists of integer rows ``ints`` and
        a nonzero ``den``, brought to the canonical form."""
        p = field.characteristic
        if p:
            inv = pow(den, -1, p)
            ints = [[x * inv % p for x in r] for r in ints]
            den = 1
        elif den != 1:
            g = gcd(den, *[x for r in ints for x in r])
            if den < 0:
                g = -g
            if g != 1:
                ints = [[x // g for x in r] for r in ints]
                den //= g
        return cls._wrap(field, den, ints, ncols)

    @classmethod
    def _wrap(cls, field, den: int, ints: list, ncols: int) -> "Matrix":
        """The matrix whose canonical form ``ints / den`` already is."""
        m = object.__new__(cls)
        m.field = field
        m.den = den
        m.ints = ints
        m.nrows = len(ints)
        m.ncols = ncols
        return m

    @property
    def rows(self) -> tuple:
        """The entries as row tuples of field scalars, built on each read."""
        return tuple(self.field.from_ints(r, self.den) for r in self.ints)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        return cls._make(field, 1, [[int(i == j) for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        return cls._make(field, 1, [[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def from_columns(cls, field, cols) -> "Matrix":
        return cls(field, list(zip(*cols, strict=True)))

    def _check_field(self, other: "Matrix"):
        if self.field != other.field:
            raise DimensionMismatch(f"operands over {self.field!r} and {other.field!r}")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch("matrix product shape mismatch")
        self._check_field(other)
        rows = _product(self.ints, other.ints, other.ncols, self.field.characteristic)
        return Matrix._make(self.field, self.den * other.den, rows, other.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix sum shape mismatch")
        self._check_field(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        rows = [[a * x + b * y for x, y in zip(r, s)] for r, s in zip(self.ints, other.ints)]
        return Matrix._make(self.field, den, rows, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def scale(self, c) -> "Matrix":
        b, (a,) = self.field.to_ints([c], ParseError)
        rows = [[a * x for x in r] for r in self.ints]
        return Matrix._make(self.field, self.den * b, rows, self.ncols)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def apply(self, vec) -> tuple:
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length mismatch")
        b, v = self.field.to_ints(vec)
        return self.field.from_ints([sum(map(mul, r, v)) for r in self.ints], self.den * b)

    def map_line(self, line) -> tuple:
        """``(num, den, image)`` for a canonical integer line: the matrix
        carries the leading-one line of ``line`` to num / den times the
        leading-one line of the canonical integer line ``image``, which is
        None when the product is zero. ``num`` is the leading entry of the
        product, reduced mod p over GF(p).

        A line with one nonzero entry is read on its face: the product is
        that column of the matrix, scaled by the entry."""
        p = self.field.characteristic
        if line.count(0) == len(line) - 1:
            x = next(filter(None, line))
            column = list(map(itemgetter(line.index(x)), self.ints))
            w = column if x == 1 else [y * x % p if p else y * x for y in column]
        else:
            w = [sum(map(mul, r, line)) % p if p else sum(map(mul, r, line)) for r in self.ints]
        lead = next(filter(None, w), 0)
        den = self.den * next(filter(None, line))
        if not lead:
            return 0, den, None
        if p:
            inv = pow(lead, -1, p)
            return lead, den, tuple(x * inv % p for x in w)
        g = gcd(*w) if lead > 0 else -gcd(*w)
        return lead, den, tuple(x // g for x in w)

    def flatten(self) -> tuple:
        return tuple(x for r in self.rows for x in r)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def inverse(self) -> "Matrix":
        """The right half of the RREF of [M | I]; singular when a pivot
        falls in that half.

        A monomial matrix, one nonzero entry x per row in distinct
        columns, is read on its face: entry x / den at (i, j) inverts to
        den / x at (j, i), with no elimination."""
        if not self.is_square():
            raise DimensionMismatch("only square matrices invert")
        n, den, ints, p = self.nrows, self.den, self.ints, self.field.characteristic
        if n and set(map(countOf, ints, repeat(0))) == {n - 1}:
            entries = [next(filter(None, r)) for r in ints]
            cols = [r.index(x) for r, x in zip(ints, entries)]
            if len(set(cols)) == n:
                top = 1 if p else lcm(*entries)
                rows = [[0] * n for _ in range(n)]
                for i, (c, x) in enumerate(zip(cols, entries)):
                    rows[c][i] = den * pow(x, -1, p) % p if p else den * (top // x)
                return Matrix._make(self.field, top, rows, n)
        # [M | I] scaled to integers: over Q that is [den M | den I]
        rows = [[*r, *(den if i == j else 0 for j in range(n))] for i, r in enumerate(ints)]
        pivots, scale = _eliminate(rows, 2 * n, p)
        if n and pivots[-1] != n - 1:
            raise SingularMatrix("matrix is singular")
        return Matrix._make(self.field, scale, [r[n:] for r in rows], n)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self):
        # the form is canonical, so equal matrices hash equal
        return hash((self.field, self.ncols, self.den, tuple(map(tuple, self.ints))))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.render_ints(r, self.den)) for r in self.ints)
        return f"Matrix[{body}]"


def ratio_matrix(field, rows, ncols: int) -> Matrix:
    """The matrix with the entries num / den, given as rows of integer
    pairs ``(num, den)`` with den a unit, over the lcm of the dens."""
    top = lcm(*[den for row in rows for _num, den in row])
    return Matrix._make(field, top, [[n * (top // d) for n, d in row] for row in rows], ncols)


class RrefResult(NamedTuple):
    matrix: Matrix
    rank: int
    pivots: tuple


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form with leading ones; unique for each matrix."""
    rows = list(m.ints)
    pivots, scale = _eliminate(rows, m.ncols, m.field.characteristic)
    return RrefResult(Matrix._make(m.field, scale, rows, m.ncols), len(pivots), tuple(pivots))


class Subspace:
    """A linear subspace of k^n, kept as the canonical integer form of its
    reduced row echelon basis (``echelon``)."""

    __slots__ = ("field", "ambient", "echelon")

    def __init__(self, field, ambient: int, vectors):
        rows = [field.to_ints(v)[1] for v in vectors]
        if any(len(r) != ambient for r in rows):
            raise DimensionMismatch("spanning vector has wrong length")
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
        self.echelon = Matrix._make(field, scale, rows, ambient)

    @classmethod
    def zero(cls, field, ambient: int) -> "Subspace":
        return cls._spanned(field, ambient, [])

    @classmethod
    def full(cls, field, ambient: int) -> "Subspace":
        return cls.coordinate(field, ambient, range(ambient))

    @classmethod
    def coordinate(cls, field, ambient: int, positions) -> "Subspace":
        """The span of the unit vectors at the increasing ``positions``:
        their rows are already the reduced echelon form, so none is
        eliminated."""
        rows = []
        for q in positions:
            row = [0] * ambient
            row[q] = 1
            rows.append(row)
        space = cls.__new__(cls)
        space.field = field
        space.ambient = ambient
        space.echelon = Matrix._wrap(field, 1, rows, ambient)
        return space

    @property
    def basis(self) -> tuple:
        """The canonical basis as leading-one field scalars, built on each read."""
        return self.echelon.rows

    @property
    def dim(self) -> int:
        return self.echelon.nrows

    def pivots(self) -> tuple:
        return tuple(row.index(next(filter(None, row))) for row in self.echelon.ints)

    def _residual(self, v: list) -> list:
        """``den`` times the residual of the integer vector ``v`` after
        elimination against the basis, not reduced mod p. The basis rows
        b_i are leading-one and zero at each other's pivots, so the
        residual is v - sum_i v[pivot_i] b_i, one product with the echelon
        rows den * b_i."""
        if len(v) != self.ambient:
            raise DimensionMismatch("vector length mismatch")
        echelon = self.echelon
        coeffs = [[v[q] for q in self.pivots()]]
        spent = _product(coeffs, echelon.ints, self.ambient, self.field.characteristic)[0]
        return [echelon.den * x - y for x, y in zip(v, spent)]

    def contains(self, vec) -> bool:
        p = self.field.characteristic
        return not any(x % p if p else x for x in self._residual(self.field.to_ints(vec)[1]))

    def coordinates_of(self, vec) -> tuple:
        """Coefficients of ``vec`` in the canonical basis; requires membership."""
        if not self.contains(vec):
            raise ValueError("vector is not in the subspace")
        den, ints = self.field.to_ints(vec)
        return self.field.from_ints([ints[q] for q in self.pivots()], den)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the null space of the stacked coefficient
        constraints sum x_i a_i - sum y_j b_j = 0."""
        if self.field != other.field or self.ambient != other.ambient:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        field = self.field
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(field, self.ambient)
        p = field.characteristic
        a, b = self.echelon.ints, other.echelon.ints
        negated = [[-x % p if p else -x for x in r] for r in b]
        constraints = [list(col) for col in zip(*a, *negated)]
        # x . a for each null vector (x, y) of the columns a_i, -b_j
        coeffs = [v[: len(a)] for v in _null_vectors(constraints, len(a) + len(b), p)]
        return Subspace._spanned(field, self.ambient, _product(coeffs, a, self.ambient, p))

    def __eq__(self, other):
        # the echelon form holds the field and the ambient dimension
        return isinstance(other, Subspace) and self.echelon == other.echelon

    def __hash__(self):
        return hash(self.echelon)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of the null space of ``m``."""
    vecs = _null_vectors(list(m.ints), m.ncols, m.field.characteristic)
    return Subspace._spanned(m.field, m.ncols, vecs)


def solve(m: Matrix, b) -> tuple | None:
    """One solution of m x = b, or None when inconsistent."""
    field = m.field
    if len(b) != m.nrows:
        raise DimensionMismatch("right-hand side length mismatch")
    b_den, rhs = field.to_ints(b)
    den = m.den
    # (ints / den) x = rhs / b_den, cleared of both denominators
    rows = [[*(x * b_den for x in r), y * den] for r, y in zip(m.ints, rhs)]
    n = m.ncols
    pivots, scale = _eliminate(rows, n + 1, field.characteristic)
    if n in pivots:
        return None
    x = [0] * n
    for row, pc in zip(rows, pivots):
        x[pc] = row[n]
    return field.from_ints(x, scale)


def _annihilator(ints: list, v: list, most: int, p: int) -> list:
    """Ascending integer coefficients of the monic annihilator of the
    nonzero integer vector ``v`` under the integer matrix ``ints``, times
    a nonzero scale: the first dependence among the Krylov vectors v,
    N v, N^2 v, ..., of which ``most`` are enough to show it.

    The Krylov vectors are the columns of one elimination. Once N^k v
    depends on the lower ones so do all higher ones, so the pivots are
    0, ..., k-1 and column k of the RREF reads N^k v = sum_j c_j N^j v,
    with the c_j over the elimination's scale.
    """
    krylov = [v]
    for _ in range(most - 1):
        w = [sum(map(mul, r, krylov[-1])) for r in ints]
        krylov.append([x % p for x in w] if p else w)
    rows = [list(col) for col in zip(*krylov)]
    pivots, scale = _eliminate(rows, most, p)
    k = len(pivots)
    return [-rows[j][k] % p if p else -rows[j][k] for j in range(k)] + [scale]


def min_poly(m: Matrix) -> Poly:
    """Monic minimal polynomial, as the lcm of the annihilators of the unit
    vectors e_1, ..., e_d (Wiedemann, IEEE Trans. IT 32, 1986).

    With N = den M and mu the lcm of the annihilators found so far, the
    annihilator of e_i is mu times that of v = mu(N) e_i, taken by Horner;
    e_i adds nothing when v = 0. Otherwise the first dependence among the
    Krylov vectors of v (``_annihilator``) is the new factor, of degree at
    most d - deg mu, so d - deg mu + 1 vectors show it. The lcm over all
    e_i annihilates every vector, so it is the minimal polynomial of N, and
    the search stops once its degree is d. Over Q mu is kept primitive in
    Z[x]. A relation sum_j c_j N^j = 0 is sum_j c_j den^j M^j = 0, which
    the canonical form of ``Poly`` makes monic.
    """
    if not m.is_square():
        raise DimensionMismatch("minimal polynomial needs a square matrix")
    field, ints, d = m.field, m.ints, m.nrows
    p = field.characteristic
    mu = [1]
    for i in range(d):
        if len(mu) > d:
            break
        # v = mu(N) e_i, by Horner from the leading coefficient
        v = [0] * d
        v[i] = mu[-1]
        for c in reversed(mu[:-1]):
            v = [sum(map(mul, r, v)) for r in ints]
            v[i] += c
            if p:
                v = [x % p for x in v]
        if not any(v):
            continue
        mu = coefficient_product(mu, _annihilator(ints, v, d - len(mu) + 2, p), p)
    den = m.den
    return Poly._make(field, mu[-1] * den ** (len(mu) - 1), [c * den**j for j, c in enumerate(mu)])


def eigenspaces(m: Matrix):
    """The spectrum of m: ``(min_poly, roots, spaces)``, with the roots of
    the minimal polynomial in the field as ``roots_in_field`` gives them.

    When the minimal polynomial splits, ``spaces`` pairs each root, as the
    integer pair ``(num, den)``, with its canonical eigenspace, and the
    dimensions add up to d exactly when m is diagonalizable over the field;
    otherwise ``spaces`` is None. Each eigenspace is the null space of the
    integer rows with the root subtracted on their diagonal.

    A diagonal matrix is read on its face, with no minimal polynomial,
    root search or null space: its distinct diagonal entries c, in
    increasing order as ``roots_in_field`` sorts them, are the simple
    roots of the product of the x - c, and the eigenspace of c is spanned
    by the unit vectors at the positions of c, a coordinate subspace whose
    unit rows are already its reduced echelon form. A scalar matrix c I is
    the case of one entry, with the one eigenspace k^d.
    """
    field, ints, den, n = m.field, m.ints, m.den, m.nrows
    p = field.characteristic
    if m.is_square() and not any(any(r[:i]) or any(r[i + 1 :]) for i, r in enumerate(ints)):
        positions = {}
        for i, r in enumerate(ints):
            positions.setdefault(r[i], []).append(i)
        coeffs, roots, spaces = [1], [], []
        # one den > 0 over Q and least residues over GF(p): ints order as values
        for c in sorted(positions):
            # times den x - c, ascending
            step = [den * a - c * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
            coeffs = [x % p for x in step] if p else step
            g = gcd(c, den)
            roots.append((c // g, den // g, 1))
            spaces.append(((c // g, den // g), Subspace.coordinate(field, n, positions[c])))
        return Poly._make(field, den ** len(roots), coeffs), tuple(roots), tuple(spaces)
    mp = min_poly(m)
    roots, split = roots_in_field(mp)
    if not split:
        return mp, roots, None
    spaces = []
    for a, b, _mult in roots:
        # the root a / b: den b (m - (a / b) I) = b ints - den a I
        rows = [[x * b for x in r] for r in ints]
        for i, row in enumerate(rows):
            row[i] = (row[i] - den * a) % p if p else row[i] - den * a
        space = Subspace._spanned(field, n, _null_vectors(rows, n, p))
        spaces.append(((a, b), space))
    return mp, roots, tuple(spaces)
