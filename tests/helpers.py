"""Debug checks, the bounded bundle-isomorphism search, the min-poly Cartan
classifier, the root-fiber refinement by eigenspace intersections, the
minimal polynomial from flattened powers, the exhaustive root search, the
field-scalar linear algebra and polynomial arithmetic the integer kernels
replaced, the scalar views of integer forms, the verdict and flag
readings only tests make, the random matrices and subspaces of the
property tests, and the call counter that pins what a check costs, used by
tests only.

None of these is reached from the command line or from the package's own
constructions; they check the package's outputs from the outside.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from random import Random

from cartancover.bundles import BundleRep, tree_paths, validate_bundle
from cartancover.cartan import (
    CartanStatus,
    CartanVerdict,
    MatrixSubspace,
    NotCartanReason,
    conjugate_subspace,
    sort_lines,
)
from cartancover.covers import (
    CoverRep,
    LineBundleOnCover,
    _invert_perm,
    cover_isomorphisms,
    direct_image_line_bundle,
    line_bundles_gauge_equivalent,
    trivial_line_bundle,
)
from cartancover.errors import DimensionMismatch, ParseError, SingularMatrix
from cartancover.fields import Fp, PrimeField, Rationals, is_prime
from cartancover.linalg import (
    Matrix,
    Subspace,
    _eliminate,
    _product,
    eigenspaces,
    kernel,
    min_poly,
)
from cartancover.parabolic import parse_weight
from cartancover.poly import Poly, nonsplit_witness, roots_in_field, squarefree_no_guard

# --- endomorphism bundles -------------------------------------------------------


def conjugation_operator(t: Matrix) -> Matrix:
    """The map m -> t m t^-1 as a d^2 x d^2 matrix on row-major coordinates."""
    return hom_operator(t, t)


def hom_operator(t_target: Matrix, t_source: Matrix) -> Matrix:
    """The map m -> t_target m t_source^-1 on row-major coordinates."""
    field = t_target.field
    d = t_target.nrows
    ti = t_source.inverse()
    zero, one = scalar(field, 0), field.one()
    cols = []
    for i in range(d):
        for j in range(d):
            e = Matrix(
                field,
                [[one if (r == i and c == j) else zero for c in range(d)] for r in range(d)],
            )
            cols.append((t_target @ e @ ti).flatten())
    return Matrix.from_columns(field, cols)


def unflatten(field, vec, nrows: int, ncols: int) -> Matrix:
    """The matrix with the row-major entries ``vec``."""
    if len(vec) != nrows * ncols:
        raise DimensionMismatch("flattened length mismatch")
    return Matrix(field, [vec[i * ncols : (i + 1) * ncols] for i in range(nrows)], ncols)


def end_bundle(bundle: BundleRep) -> BundleRep:
    """The endomorphism bundle, rank d^2, with conjugation as edge action."""
    ops = [conjugation_operator(t) for t in bundle.transitions]
    return BundleRep(bundle.field, bundle.graph, bundle.rank**2, ops)


# --- bundle isomorphism ---------------------------------------------------------


@dataclass(frozen=True)
class BundleIsoResult:
    """Outcome of the bounded flat-isomorphism search between two bundles.

    ``witness`` holds one invertible flat homomorphism (a matrix per
    vertex) when found. A miss is conclusive only when the flat-Hom
    space is zero; otherwise the bounded search may simply not have
    reached an invertible combination.
    """

    witness: tuple | None
    hom_dimension: int
    conclusive: bool

    @property
    def found(self) -> bool:
        return self.witness is not None


def flat_hom_space(source: BundleRep, target: BundleRep):
    """Basis of flat homomorphisms source -> target, as root-fiber matrices
    together with the per-vertex transport operators."""
    if source.graph != target.graph or source.rank != target.rank:
        raise DimensionMismatch("bundles must share base and rank")
    field = source.field
    d = source.rank
    tree = validate_bundle(source)
    validate_bundle(target)
    paths_s = tree_paths(source, tree)
    paths_t = tree_paths(target, tree)
    ident = Matrix.identity(field, d * d)
    rows = []
    for e in tree.cotree_edges:
        u, v = source.graph.edges[e]
        h_t = paths_t[v][1] @ target.transitions[e] @ paths_t[u][0]
        h_s = paths_s[v][1] @ source.transitions[e] @ paths_s[u][0]
        rows += (hom_operator(h_t, h_s) - ident).rows
    space = kernel(Matrix(field, rows)) if rows else Subspace.full(field, d * d)
    basis = tuple(unflatten(field, vec, d, d) for vec in space.basis)
    return basis, [p for p, _pi in paths_t], [pi for _p, pi in paths_s]


def bundle_iso_check(
    source: BundleRep,
    target: BundleRep,
    coefficient_bound: int = 3,
    max_candidates: int = 200000,
) -> BundleIsoResult:
    """Search the flat-Hom space for an invertible element.

    Each basis element is tried first, then integer-coefficient
    combinations with entries in [-bound, bound] in a fixed order, so the
    outcome is deterministic. A flat homomorphism invertible at the root
    is invertible everywhere (transport is by invertible operators).
    """
    basis, paths_t, pinv_s = flat_hom_space(source, target)
    dim = len(basis)

    def transport(m0):
        return tuple(pt @ m0 @ ps for pt, ps in zip(paths_t, pinv_s))

    for m0 in basis:
        if is_invertible(m0):
            return BundleIsoResult(transport(m0), dim, True)
    field = source.field
    coeff_range = [scalar(field, c) for c in range(-coefficient_bound, coefficient_bound + 1)]
    tried = 0
    for combo in product(coeff_range, repeat=dim):
        tried += 1
        if tried > max_candidates:
            break
        if all(c == 0 for c in combo):
            continue
        m0 = Matrix.zeros(field, source.rank, source.rank)
        for c, b in zip(combo, basis):
            if c != 0:
                m0 = m0 + b.scale(c)
        if is_invertible(m0):
            return BundleIsoResult(transport(m0), dim, True)
    return BundleIsoResult(None, dim, dim == 0)


# --- covers ----------------------------------------------------------------------


def pullback_scalars(
    iso_maps, source_cover: CoverRep, target_line: LineBundleOnCover
) -> LineBundleOnCover:
    """Scalars on the source cover induced by an isomorphism onto the target."""
    rows = target_line.scalars.rows
    scalars = []
    for e, (u, _v) in enumerate(source_cover.base.edges):
        beta_u = iso_maps[u]
        scalars.append(tuple(rows[e][beta_u[t]] for t in range(source_cover.degree)))
    return LineBundleOnCover(source_cover, target_line.field, tuple(scalars))


def roundtrip_witness_holds(cover: CoverRep, line: LineBundleOnCover, record) -> bool:
    """Oracle for a ``cover_roundtrip`` record: its isomorphism is among the
    ``cover_isomorphisms`` onto the rebuilt cover, and pulls the rebuilt
    scalars back to a line bundle gauge-equivalent to ``line``."""
    rebuilt = record.roundtrip.result
    if record.isomorphism not in set(cover_isomorphisms(cover, rebuilt.cover)):
        return False
    pulled = pullback_scalars(record.isomorphism, cover, rebuilt.line_bundle)
    return line_bundles_gauge_equivalent(line, pulled)


def composite_consistent(cover: CoverRep, system, quotient: CoverRep) -> bool:
    """Oracle: the quotient map followed by the intermediate cover's own
    projection reproduces every edge bijection of the cover.

    The quotient map at vertex v sends label t to block_of(tau_v^-1(t)),
    for the cover's tree gauge tau.
    """
    block_of = system.block_of()
    label_map = [
        tuple(block_of[x] for x in _invert_perm(tau)) for tau in cover.gauge.taus
    ]
    for e, (u, v) in enumerate(cover.base.edges):
        for t in range(cover.degree):
            if label_map[v][cover.sigma[e][t]] != quotient.sigma[e][label_map[u][t]]:
                return False
    return True


def indicator_embedding_flat(
    cover: CoverRep, system, field, quotient: CoverRep | None = None
) -> bool:
    """Oracle: the block indicator embedding i commutes with every transition.

    Pushes the structure sheaf forward along the cover in its tree gauge,
    to W, and asks of every edge that W_e . i = i . V_e. With ``quotient``
    (the intermediate cover of a block system), V is the structure sheaf's
    pushforward along it. Without, V_e is the only candidate p . W_e . i,
    for the first-of-block retraction p with p . i = I, which is defined
    for any equal-size partition of the fiber.
    """
    gauged = CoverRep(cover.base, cover.degree, cover.gauge.sigma)
    w = direct_image_line_bundle(trivial_line_bundle(gauged, field))
    v = None
    if quotient is not None:
        v = direct_image_line_bundle(trivial_line_bundle(quotient, field))
    d, m = cover.degree, system.num_blocks
    zero, one = scalar(field, 0), field.one()
    include = Matrix(
        field,
        [[one if t in system.blocks[j] else zero for j in range(m)] for t in range(d)],
    )
    retract = Matrix(
        field,
        [[one if t == system.blocks[i][0] else zero for t in range(d)] for i in range(m)],
    )
    for e in range(len(cover.base.edges)):
        w_include = w.transitions[e] @ include
        v_e = retract @ w_include if v is None else v.transitions[e]
        if w_include != include @ v_e:
            return False
    return True


# --- linear algebra on field scalars -------------------------------------------------
#
# Oracles for the integer kernels of ``linalg``: the generic loops they
# replaced, with every operation on ``Fraction`` or ``Fp`` scalars.


def matmul_by_scalars(a: Matrix, b: Matrix) -> tuple:
    """Rows of a . b, summed in field scalars."""
    zero = scalar(a.field, 0)
    cols = list(zip(*b.rows)) if b.rows else [()] * b.ncols
    return tuple(
        tuple(sum((x * y for x, y in zip(r, c) if x != 0), zero) for c in cols) for r in a.rows
    )


def apply_by_scalars(m: Matrix, vec) -> tuple:
    """m . vec, summed in field scalars."""
    zero = scalar(m.field, 0)
    return tuple(sum((a * x for a, x in zip(r, vec) if a != 0), zero) for r in m.rows)


def rref_by_scalars(field, rows, ncols: int):
    """``(rows, pivots)`` of the reduced row echelon form with leading ones,
    by Gauss-Jordan elimination on field scalars."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.one() / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def inverse_by_scalars(m: Matrix) -> tuple:
    """Rows of m^-1 from the RREF of [m | I] on field scalars; raises
    ``SingularMatrix`` when a pivot falls in the right half."""
    n = m.nrows
    aug = [r + ir for r, ir in zip(m.rows, Matrix.identity(m.field, n).rows)]
    rows, pivots = rref_by_scalars(m.field, aug, 2 * n)
    if pivots != tuple(range(n)):
        raise SingularMatrix("matrix is singular")
    return tuple(r[n:] for r in rows)


def is_invertible(m: Matrix) -> bool:
    """Whether ``Matrix.inverse`` finds m invertible."""
    try:
        m.inverse()
        return True
    except SingularMatrix:
        return False


def integer_line(field, vec):
    """The canonical integer line through the scalar vector ``vec``, the
    image of its integer form under the identity; None for zero."""
    v = field.to_ints(vec)[1]
    p = field.characteristic
    if not any(x % p if p else x for x in v):
        return None
    return Matrix.identity(field, len(v)).map_line(v)[2]


def element_key(x):
    """A field scalar as a sort key: a rational itself, a residue its least
    residue."""
    return x.val if isinstance(x, Fp) else x


def sort_lines_by_scalars(field, lines) -> tuple:
    """Leading-one scalar lines sorted by the position of the leading entry,
    then entrywise by ``element_key``: the order of eigenlines."""

    def key(vec):
        pivot = next(i for i, x in enumerate(vec) if x != 0)
        return (pivot, tuple(element_key(x) for x in vec))

    return tuple(sorted(lines, key=key))


# --- scalar views of integer forms ----------------------------------------------------
#
# The package keeps lines and roots in integer form; these read them as
# field scalars, for comparison with scalar arithmetic.


def scalar(field, x):
    """The field scalar of ``x``: an int, an instance-file string or a
    scalar, read by ``to_ints``."""
    den, ints = field.to_ints([x])
    return field.from_ints(ints, den)[0]


def line_scalars(field, line) -> tuple:
    """The leading-one field scalars of a canonical integer line."""
    return field.from_ints(line, next(filter(None, line)))


def eigenline_scalars(field, lines) -> tuple:
    """Canonical integer lines as leading-one field scalars."""
    return tuple(line_scalars(field, line) for line in lines)


def root_scalar(field, num: int, den: int):
    """The field scalar num / den of a root in integer form."""
    return field.from_ints([num], den)[0]


def root_triples(roots) -> tuple:
    """``(value, multiplicity)`` pairs of field scalars as the
    ``(num, den, multiplicity)`` triples of ``roots_in_field``."""
    return tuple(
        (r.val, 1, m) if isinstance(r, Fp) else (r.numerator, r.denominator, m) for r, m in roots
    )


def min_poly_by_powers(m: Matrix) -> Poly:
    """Monic minimal polynomial via the first dependence among I, M, M^2,
    ..., the elimination ``linalg.min_poly`` ran before it took the lcm of
    the annihilators of the unit vectors.

    The flattened integer powers P_k = N^k of N = den M, for k up to d,
    are the columns of one elimination. Once M^k depends on lower powers
    so do all higher ones, so the pivots are 0, ..., k-1 and column k of
    the RREF reads P_k = sum_j c_j P_j. With M^k = P_k / den^k that is
    the monic relation M^k = sum_j c_j den^(j-k) M^j.
    """
    field, d = m.field, m.nrows
    p = field.characteristic
    den = m.den
    power = [[int(i == j) for j in range(d)] for i in range(d)]
    flat = [[x for r in power for x in r]]
    for _ in range(d):
        power = _product(power, m.ints, d, p)
        flat.append([x for r in power for x in r])
    rows = [list(col) for col in zip(*flat)]
    pivots, scale = _eliminate(rows, d + 1, p)
    k = len(pivots)
    lead = scale * den**k
    coeffs = [-rows[j][k] * den**j for j in range(k)] + [lead]
    return Poly._make(field, lead, coeffs)


def min_poly_by_scalars(m: Matrix) -> Poly:
    """Monic minimal polynomial by incremental elimination on field scalars:
    each flattened power M^k is reduced against the leading-one rows of
    the lower powers, carrying its coefficients in the powers, until a
    residue vanishes."""
    field, d = m.field, m.nrows
    zero, one = scalar(field, 0), field.one()
    reduced = []
    power = Matrix.identity(field, d)
    for k in range(d + 1):
        if k:
            power = Matrix(field, matmul_by_scalars(power, m), ncols=d)
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


# --- Cartan classification by minimal polynomials ----------------------------------


def is_split(verdict: CartanVerdict) -> bool:
    """Whether a Cartan verdict is split."""
    return verdict.status is CartanStatus.SPLIT


def classify_by_min_polys(a: MatrixSubspace, d: int) -> CartanVerdict:
    """Oracle for ``classify_subspace``: the classifier the eigenline split
    replaced, which names a verdict without splitting anything.

    Wrong dimension first, then every commutator, then the minimal
    polynomial of each basis matrix in order: split with simple roots means
    diagonalizable here, squarefree without splitting means diagonalizable
    only after an extension, and anything else is a genuine obstruction.
    """
    if a.ambient_dim != d:
        raise DimensionMismatch(f"subspace of M({a.ambient_dim}) tested against d = {d}")
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
        if any(mult > 1 for _num, _den, mult in roots):
            return CartanVerdict(
                CartanStatus.NOT_CARTAN,
                NotCartanReason.NOT_DIAGONALIZABLE,
                witness_index=i,
                witness_poly=mp,
            )
        if split:
            continue
        if not squarefree_no_guard(mp):
            return CartanVerdict(
                CartanStatus.NOT_CARTAN,
                NotCartanReason.NOT_DIAGONALIZABLE,
                witness_index=i,
                witness_poly=mp,
            )
        if witness is None:
            witness = nonsplit_witness(mp, roots)
    if witness is not None:
        return CartanVerdict(CartanStatus.NONSPLIT, witness_poly=witness)
    return CartanVerdict(CartanStatus.SPLIT)


def refined_lines_by_intersection(a: MatrixSubspace, spectra: list):
    """Oracle for ``cartan._refined_lines``: the refinement the block
    restriction replaced, which takes each basis matrix's spectrum over all
    of k^d and cuts every block by ``Subspace.intersect`` with each of its
    eigenspaces. Same contract: canonical integer lines or None, each
    spectrum appended to ``spectra``.
    """
    d = a.ambient_dim
    blocks = [Subspace.full(a.field, d)]
    for m in a.basis_matrices():
        if len(blocks) == d:
            break
        mp, roots, spaces = eigenspaces(m)
        spectra.append((mp, roots, spaces is not None))
        if spaces is None or any(mult > 1 for _num, _den, mult in roots):
            return None
        refined = []
        for block in blocks:
            pieces = [block] if block.dim == 1 else [block.intersect(s) for _lam, s in spaces]
            refined += [piece for piece in pieces if piece.dim > 0]
        blocks = refined
    if len(blocks) != d:
        return None
    return sort_lines(tuple(b.echelon.ints[0]) for b in blocks)


# --- algebra and weight checks ----------------------------------------------------


def subalgebra_closure_defect(a: MatrixSubspace) -> Matrix | None:
    """Debug check: a product of basis elements escaping the span, if any.

    Closure is implied for subspaces passing the Cartan test, so this is
    not part of classification.
    """
    basis = a.basis_matrices()
    for x in basis:
        for y in basis:
            prod = x @ y
            if not a.space.contains(prod.flatten()):
                return prod
    return None


def total_dimension(filtration) -> int:
    """The sum of the jumps of a ``parabolic.WeightedFiltration``."""
    return sum(j for _w, j in filtration.jumps)


def tameness_check(weights, p: int) -> tuple:
    """Per weight: the reduced denominator is not divisible by the characteristic."""
    if not is_prime(p):
        raise ParseError(f"{p} is not prime")
    out = []
    for w in weights:
        w = parse_weight(w)
        out.append(w.denominator % p != 0)
    return tuple(out)


# --- exhaustive root search ---------------------------------------------------------


def field_elements(field: PrimeField) -> list:
    """Every element of GF(p), in order of least residue."""
    return [Fp(i, field.p) for i in range(field.p)]


def _divisors(n: int) -> list:
    n = abs(n)
    out = []
    f = 1
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            if f != n // f:
                out.append(n // f)
        f += 1
    return sorted(out)


def roots_by_enumeration(p: Poly):
    """Oracle for ``roots_in_field``: the exhaustive search it replaced.

    Tries every element of GF(p), or over Q every +-a/b for a dividing the
    constant term and b the leading coefficient, denominators cleared and
    x^k split off; each root found (by Horner's rule) is divided out, by
    long division on field scalars, as often as it divides. Returns
    ``(roots, split)`` in the same form, the roots sorted as scalars and
    then written as triples. Over GF(p) the scan
    evaluates on least residues first, so that GF(1009) stays quick.
    """
    field = p.field
    if p.is_constant():
        return (), True
    if isinstance(field, PrimeField):
        ints = [c.val for c in p.coeffs]
        candidates = [x for x in field_elements(field) if _value_mod(ints, x.val, field.p) == 0]
    else:
        denom = 1
        for c in p.coeffs:
            denom = math.lcm(denom, c.denominator)
        ints = [int(c * denom) for c in p.coeffs]
        k = 0
        while ints[k] == 0:
            k += 1
        candidates = [Fraction(0)] if k > 0 else []
        seen = set()
        for num in _divisors(ints[k]):
            for den in _divisors(ints[-1]):
                for s in (1, -1):
                    c = Fraction(s * num, den)
                    if c not in seen:
                        seen.add(c)
                        candidates.append(c)
    roots = []
    rem = p
    for c in candidates:
        value = scalar(field, 0)
        for a in reversed(rem.coeffs):
            value = value * c + a
        if value != 0:
            continue
        lin = Poly(field, (-c, field.one()))
        mult = 0
        while not rem.is_constant():
            q, r = divmod_by_scalars(rem, lin)
            if not r.is_zero():
                break
            rem = q
            mult += 1
        if mult:
            roots.append((c, mult))
    roots.sort(key=lambda rm: element_key(rm[0]))
    return root_triples(roots), sum(m for _, m in roots) == p.degree


def _value_mod(coeffs: list, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


# --- polynomial arithmetic on field scalars -----------------------------------------
#
# The Euclidean algorithms ``poly.py`` held before its polynomials computed
# only on integer coefficient lists. Each reads and returns ``Poly`` values
# through their field-scalar coefficients.


def from_roots_by_scalars(field, roots) -> Poly:
    """The monic product of the x - r over ``roots``, repeats included."""
    zero, coeffs = scalar(field, 0), [field.one()]
    for r in roots:
        r = scalar(field, r)
        coeffs = [a - r * b for a, b in zip([zero, *coeffs], [*coeffs, zero])]
    return Poly(field, coeffs)


def mul_by_scalars(a: Poly, b: Poly) -> Poly:
    field = a.field
    out = [scalar(field, 0)] * max(0, a.degree + b.degree + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Poly(field, out)


def divmod_by_scalars(a: Poly, b: Poly) -> tuple:
    """Quotient and remainder of ``a`` by the nonzero ``b``, by long division."""
    field = a.field
    rem, top = list(a.coeffs), b.coeffs
    d = b.degree
    quo = [scalar(field, 0)] * max(0, len(rem) - d)
    inv_lead = field.one() / top[-1]
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] * inv_lead
        if c == 0:
            continue
        quo[i - d] = c
        for j, y in enumerate(top):
            rem[i - d + j] = rem[i - d + j] - c * y
    return Poly(field, quo), Poly(field, rem)


def monic_by_scalars(a: Poly) -> Poly:
    if a.is_zero():
        return a
    lead = a.coeffs[-1]
    return Poly(a.field, [c / lead for c in a.coeffs])


def derivative_by_scalars(a: Poly) -> Poly:
    return Poly(a.field, [k * c for k, c in enumerate(a.coeffs)][1:])


def gcd_by_scalars(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; zero for two zeros."""
    while not b.is_zero():
        a, b = b, divmod_by_scalars(a, b)[1]
    return monic_by_scalars(a)


def squarefree_by_scalars(a: Poly) -> bool:
    """Oracle for ``squarefree_no_guard``: over GF(p) a vanishing derivative
    makes a nonconstant ``a`` a p-th power; otherwise gcd(a, a') decides."""
    if a.is_constant():
        return True
    d = derivative_by_scalars(a)
    return not d.is_zero() and gcd_by_scalars(a, d).is_constant()


def squarefree_part_by_scalars(a: Poly) -> Poly:
    """A monic squarefree divisor of the nonzero ``a``, nonconstant when
    ``a`` is: over GF(p) a p-th power g(x^p) recurses on g, and otherwise
    ``a`` is divided by gcd(a, a') until that gcd is constant."""
    if a.is_constant():
        return monic_by_scalars(a)
    d = derivative_by_scalars(a)
    if d.is_zero():
        return squarefree_part_by_scalars(Poly(a.field, a.coeffs[:: a.field.p]))
    g = gcd_by_scalars(a, d)
    if g.is_constant():
        return monic_by_scalars(a)
    return squarefree_part_by_scalars(divmod_by_scalars(a, g)[0])


def nonsplit_witness_by_scalars(a: Poly, roots) -> Poly:
    """Oracle for ``nonsplit_witness``: the squarefree part of ``a`` with the
    linear factors of ``roots`` (triples, as ``roots_in_field`` gives them)
    divided out, constant when ``a`` splits."""
    field = a.field
    linear = from_roots_by_scalars(
        field, [root_scalar(field, num, den) for num, den, mult in roots for _ in range(mult)]
    )
    return squarefree_part_by_scalars(divmod_by_scalars(a, linear)[0])


def render_by_scalars(field, coeffs) -> str:
    """Oracle for ``str(Poly)``: the nonzero terms from the top degree down,
    a coefficient 1 (or -1 over Q) left implicit, joined by " + ", and
    each "+ -" folded into "- "."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        x = "x" if k == 1 else f"x^{k}"
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        elif c == 1:
            terms.append(x)
        elif c == -1:
            terms.append("-" + x)
        else:
            terms.append(f"{c}*{x}")
    return " + ".join(terms).replace("+ -", "- ") or "0"


# --- instance-file matrices ------------------------------------------------------
#
# Oracles for ``instances.parse_matrix`` and ``reports.render_matrix``: the
# per-entry path they replaced, with a field scalar for every entry.


def scalar_at(field, value, where):
    """The field scalar of one instance-file entry, or its error with its
    location; a float is no exact scalar."""
    if isinstance(value, float):
        raise ParseError(f"{where}: floats are not exact scalars")
    try:
        return scalar(field, value)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None


def parse_matrix_by_scalars(field, value, where) -> Matrix:
    """The matrix of a list of rows of entries, each parsed to a field
    scalar, its canonical form read off the scalars."""
    if not isinstance(value, list) or not value:
        raise ParseError(f"{where}: expected a nonempty list of rows")
    parsed = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ParseError(f"{where}[{i}]: expected a list")
        parsed.append([scalar_at(field, x, f"{where}[{i}][{j}]") for j, x in enumerate(row)])
    width = len(parsed[0])
    if any(len(r) != width for r in parsed) or width == 0:
        raise ParseError(f"{where}: matrix rows must be nonempty and equal length")
    if field.characteristic:
        return Matrix._make(field, 1, [[x.val for x in r] for r in parsed], width)
    den = math.lcm(*[x.denominator for r in parsed for x in r])
    ints = [[x.numerator * (den // x.denominator) for x in r] for r in parsed]
    return Matrix._make(field, den, ints, width)


def render_matrix_by_scalars(field, m: Matrix) -> list:
    """Oracle for ``reports.render_matrix``: each field scalar rendered."""
    return [[str(x) for x in row] for row in m.rows]


def cover_scalars_by_scalars(field, rows) -> tuple:
    """Oracle for the line-bundle scalars of a cover instance, the per-entry
    path they replaced: each entry parsed to a field scalar. Returns the
    scalar rows, the canonical form ``(den, ints)`` read off them and the
    rendered rows."""
    parsed = [
        tuple(scalar_at(field, x, f"payload.scalars[{i}][{j}]") for j, x in enumerate(row))
        for i, row in enumerate(rows)
    ]
    if field.characteristic:
        den, ints = 1, [[x.val for x in r] for r in parsed]
    else:
        den = math.lcm(*[x.denominator for r in parsed for x in r])
        ints = [[x.numerator * (den // x.denominator) for x in r] for r in parsed]
    return tuple(parsed), (den, ints), [[str(x) for x in r] for r in parsed]


# --- random matrices and subspaces ------------------------------------------------------


def random_invertible_matrix(rng: Random, field, d: int, tries: int = 100) -> Matrix:
    for _ in range(tries):
        if isinstance(field, Rationals):
            rows = [
                [Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)
            ]
        else:
            rows = [[rng.randrange(field.p) for _ in range(d)] for _ in range(d)]
        m = Matrix(field, rows)
        if is_invertible(m):
            return m
    raise AssertionError("failed to sample an invertible matrix")


def random_matrix(rng: Random, field, d: int) -> Matrix:
    if isinstance(field, Rationals):
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
    else:
        rows = [[rng.randrange(field.p) for _ in range(d)] for _ in range(d)]
    return Matrix(field, rows)


def rootless_quadratic_block(field):
    """The companion matrix of a quadratic with no root in the field."""
    p = field.characteristic
    if not p:
        return [[0, 2], [1, 0]]
    b, c = next(
        (b, c)
        for b in range(p)
        for c in range(p)
        if all((t * t - b * t - c) % p for t in range(p))
    )
    return [[0, c], [1, b]]  # x^2 - b x - c


def random_subspace_for_cartan_test(rng: Random, field, d: int) -> MatrixSubspace:
    """Mixed strategies so every classification verdict shows up."""
    strategy = rng.randrange(4)
    if strategy == 0:
        # conjugated diagonal algebra: always split Cartan
        t = random_invertible_matrix(rng, field, d)
        return conjugate_subspace(MatrixSubspace.diagonal_algebra(field, d), t)
    if strategy == 1:
        # span of powers of one matrix: commutative, split or not
        m = random_matrix(rng, field, d)
        powers = [Matrix.identity(field, d)]
        for _ in range(d - 1):
            powers.append(powers[-1] @ m)
        return MatrixSubspace(field, d, powers)
    if strategy == 2:
        # random spanning set of the target dimension
        return MatrixSubspace(field, d, [random_matrix(rng, field, d) for _ in range(d)])
    # random dimension, frequently wrong
    k = rng.randint(1, d + 1)
    return MatrixSubspace(field, d, [random_matrix(rng, field, d) for _ in range(k)])


# --- call counting -----------------------------------------------------------------------


def count_calls(patch, target, name: str | None = None) -> list:
    """The argument tuples of the calls of a package callable, in call order,
    as a list that grows while ``patch`` keeps the counter in place.

    ``count_calls(patch, fn)`` replaces the package function or class
    ``fn`` in every ``cartancover`` module that binds it, so a call through
    another module's ``from`` import counts as well as one inside its own
    module. ``count_calls(patch, owner, name)`` replaces the attribute
    ``name`` of a class or module only; a method's tuple starts with
    ``self``, and a classmethod stays one, its tuple starting with the
    class. ``patch`` is ``monkeypatch`` or a ``monkeypatch.context()``,
    whose undo puts the real objects back.
    """
    if name is None:
        name, real = target.__name__, target
        owners = [
            module
            for module_name, module in list(sys.modules.items())
            if module_name.startswith("cartancover") and getattr(module, name, None) is real
        ]
        if not owners:
            raise ValueError(f"no cartancover module binds {name}")
    else:
        owners, real = [target], getattr(target, name)
    is_classmethod = isinstance(vars(owners[0]).get(name), classmethod)
    if is_classmethod:
        # the bound method's function, which takes the class first
        real = real.__func__
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    replacement = classmethod(counting) if is_classmethod else counting
    for owner in owners:
        patch.setattr(owner, name, replacement)
    return calls
