"""Covers of the base graph and the two constructions relating them to bundles.

A degree-d cover is a fiber of d labels over each vertex together with a
bijection of labels along every oriented edge. Pushing a line bundle on
the cover down to the base produces a rank-d bundle with monomial
transitions and a distinguished fiberwise-diagonal algebra subbundle.
In the other direction, a split Cartan algebra subbundle of End(E)
yields, through its common eigenlines, a cover, a line bundle on it, and
an identification of E with the pushforward. Both directions are
implemented constructively. The rebuilt cover, line bundle and
identification are read off the validated eigenlines, whose defining
equations ``validate_cartan_bundle`` checks one vector at a time; the
identities they imply are argued in the docstrings, not checked again.

Over a connected base, "split Cartan" is a fact about one fiber: a
subbundle that every transition carries onto the next fiber is fixed by
its root fiber and parallel transport. So only the root fiber is split
into its common eigenlines, and the lines elsewhere are the root ones
transported along a spanning tree. The bundle is a compatible split
Cartan bundle exactly when every fiber, the root's included, is diagonal
in its lines and every transition permutes them (argued in
``validate_cartan_bundle``). No fiber is classified unless it fails, and
then only to name the failure; no fiber but the root's is brought to its
canonical form, and no transition is inverted but those the transport
crosses against their orientation. Those lines are the spectral cover's
labels, so validating the bundle and building its cover are one pass,
with no subspace conjugated on the way.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

from .bundles import BaseGraph, BundleRep, SubalgebraBundle, validate_cartan_bundle
from .cartan import MatrixSubspace
from .errors import DimensionMismatch, EtaNotMonomial, ParseError
from .linalg import Matrix, ratio_matrix


def _check_permutation(sigma, d: int):
    if len(sigma) != d or sorted(sigma) != list(range(d)):
        raise ParseError(f"{sigma} is not a permutation of 0..{d - 1}")


class CoverRep:
    """A degree-d cover: labels 0..d-1 over each vertex, a bijection per edge."""

    __slots__ = ("base", "degree", "sigma", "_gauge")
    base: BaseGraph
    degree: int
    sigma: tuple  # per edge, the image list of source-fiber labels

    def __init__(self, base: BaseGraph, degree: int, sigma):
        if degree < 1:
            raise DimensionMismatch("cover degree must be positive")
        sigma = tuple(tuple(int(x) for x in s) for s in sigma)
        if len(sigma) != len(base.edges):
            raise DimensionMismatch("one label bijection per edge required")
        for s in sigma:
            _check_permutation(s, degree)
        self.base = base
        self.degree = degree
        self.sigma = sigma
        self._gauge = None

    def __eq__(self, other):
        if type(other) is not CoverRep:
            return NotImplemented
        return (self.base, self.degree, self.sigma) == (other.base, other.degree, other.sigma)

    def __hash__(self):
        return hash((self.base, self.degree, self.sigma))

    def __repr__(self):
        return f"CoverRep(base={self.base!r}, degree={self.degree!r}, sigma={self.sigma!r})"

    @property
    def gauge(self) -> "TreeGauge":
        """``tree_gauge(self)``, computed once per cover."""
        if self._gauge is None:
            self._gauge = tree_gauge(self)
        return self._gauge


class LineBundleOnCover:
    """A nonzero scalar per cover edge: label t over base edge e carries
    entry (e, t) of ``scalars``, a ``Matrix`` over ``field`` with one row
    per base edge (none on an edgeless cover) and one column per label.
    Rows of entries (field scalars, ints or instance-file strings) are read
    into one by ``Matrix``.
    """

    __slots__ = ("cover", "field", "scalars")
    cover: CoverRep
    field: object
    scalars: Matrix

    def __init__(self, cover: CoverRep, field, scalars):
        if not isinstance(scalars, Matrix):
            scalars = Matrix(field, scalars, cover.degree)
        shape = (len(cover.base.edges), cover.degree)
        if scalars.field != field or (scalars.nrows, scalars.ncols) != shape:
            raise DimensionMismatch("one scalar of the field per edge and label required")
        if any(0 in row for row in scalars.ints):
            raise DimensionMismatch("line bundle scalars must be nonzero")
        self.cover = cover
        self.field = field
        self.scalars = scalars

    def __eq__(self, other):
        if type(other) is not LineBundleOnCover:
            return NotImplemented
        return (self.cover, self.field, self.scalars) == (other.cover, other.field, other.scalars)

    def __hash__(self):
        return hash((self.cover, self.field, self.scalars))

    def __repr__(self):
        return (
            f"LineBundleOnCover(cover={self.cover!r}, field={self.field!r}, "
            f"scalars={self.scalars!r})"
        )


def trivial_line_bundle(cover: CoverRep, field) -> LineBundleOnCover:
    """The structure sheaf of the cover: every scalar is one."""
    return LineBundleOnCover(cover, field, [[1] * cover.degree for _ in cover.base.edges])


class CoverReport(NamedTuple):
    component_count: int
    degree_profile: tuple
    split: bool


def cover_report(cover: CoverRep) -> CoverReport:
    """Component count and degrees; split means d disjoint copies of the base.

    The components are the orbits of the root fiber under the gauged cotree
    permutations (``CoverRep.gauge``), and an orbit's size is its component's
    degree. In the tree gauge every tree edge carries the identity, so over a
    connected base the tree path joins each point (v, t) to the root point
    that tau_v carries to it, and two root points are joined exactly when a
    word in the cotree permutations carries one to the other. A disconnected
    base has no spanning tree and is refused with ``DisconnectedBase``.
    """
    generators = [g for _e, g in cover.gauge.generators]
    unseen = set(range(cover.degree))
    degrees = []
    while unseen:
        orbit = [unseen.pop()]
        for t in orbit:
            for g in generators:
                if g[t] in unseen:
                    unseen.remove(g[t])
                    orbit.append(g[t])
        degrees.append(len(orbit))
    degrees.sort(reverse=True)
    return CoverReport(len(degrees), tuple(degrees), all(k == 1 for k in degrees))


def direct_image_line_bundle(line: LineBundleOnCover) -> BundleRep:
    """Pushforward of a line bundle: rank-d bundle with monomial transitions.

    Basis vectors of the fiber are indexed by the cover labels; the edge
    matrix sends basis vector t to s[e][t] times basis vector sigma[e][t],
    so each transition has exactly one nonzero entry per row and column.
    """
    cover, field, scalars = line.cover, line.field, line.scalars
    d = cover.degree
    transitions = []
    for sigma, row in zip(cover.sigma, scalars.ints):
        ints = [[0] * d for _ in range(d)]
        for t, x in enumerate(row):
            ints[sigma[t]][t] = x
        transitions.append(Matrix._make(field, scalars.den, ints, d))
    return BundleRep(field, cover.base, d, transitions)


def canonical_algebra_map(line: LineBundleOnCover) -> SubalgebraBundle:
    """The fiberwise-diagonal algebra inside End of the pushforward.

    Coordinate projections in the cover-label basis span the space of all
    diagonal matrices at each vertex; monomial transitions conjugate
    diagonals to diagonals, so the family is edge-compatible by design.
    """
    bundle = direct_image_line_bundle(line)
    diag = MatrixSubspace.diagonal_algebra(line.field, bundle.rank)
    return SubalgebraBundle(bundle, tuple(diag for _ in range(bundle.graph.num_vertices)))


class SpectralCoverResult(NamedTuple):
    cover: CoverRep
    line_bundle: LineBundleOnCover
    eta: tuple  # per vertex, the invertible matrix with eigenline columns


def build_spectral_cover(algebra: SubalgebraBundle) -> SpectralCoverResult:
    """Rebuild the cover and line bundle from a split Cartan algebra subbundle.

    ``validate_cartan_bundle`` validates the input and hands back what the
    cover is made of: the root fiber's d common eigenlines carried along
    the spanning tree, in which every fiber, the root included, is diagonal
    and which every transition permutes (the argument is in its docstring).

    The cover's labels at each vertex are its lines in canonical order:
    transition e maps line t over its source to entry (e, t) of the matrix
    ``factors`` times line ``images[e][t]`` over its target, which fixes
    the label bijection, and ``factors`` is the line bundle's scalar
    matrix. eta_v, the matrix of the leading-one lines over v
    (``_line_matrix``), identifies the pushforward with the original
    bundle: with P'_e the pushforward's transition on edge e = (u, v),
    column t of eta_v P'_e = T_e eta_u reads
    T_e line_t = factors(e, t) line_{images[e][t]},
    the equation ``bundles._map_lines`` checks for every line on every edge,
    so the identity holds without being multiplied out. eta_v depends on
    the lines over v alone, so it is built once per distinct tuple of
    lines, and vertices with equal lines, every vertex of a direct image,
    share that matrix.
    """
    split = validate_cartan_bundle(algebra)
    bundle = algebra.parent
    field = bundle.field
    cover = CoverRep(bundle.graph, bundle.rank, split.images)
    line_bundle = LineBundleOnCover(cover, field, split.factors)
    etas = {lines: _line_matrix(field, lines) for lines in set(split.lines)}
    eta = tuple(etas[lines] for lines in split.lines)
    return SpectralCoverResult(cover, line_bundle, eta)


def _line_matrix(field, lines) -> Matrix:
    """The matrix whose column t is the leading-one line of the canonical
    integer line ``lines[t]``: its entries over its leading entry."""
    leads = [next(filter(None, line)) for line in lines]
    return ratio_matrix(field, [list(zip(row, leads)) for row in zip(*lines)], len(lines))


class RoundtripRecord(NamedTuple):
    """Round trip bundle -> cover -> bundle. Every identity of the round
    trip raises on failure, so a returned record certifies it (see
    ``roundtrip_verify``). ``report`` is the rebuilt cover's report."""

    report: CoverReport
    result: SpectralCoverResult

    @property
    def component_count(self) -> int:
        return self.report.component_count

    @property
    def flat_section_dim(self) -> int:
        """The flat-section dimension of the algebra bundle: the component
        count, by the argument in ``roundtrip_verify``."""
        return self.report.component_count

    def all_ok(self) -> bool:
        return True


def roundtrip_verify(algebra: SubalgebraBundle) -> RoundtripRecord:
    """Rebuild the cover and count its components, which count the flat sections.

    ``build_spectral_cover`` raises unless, through ``validate_cartan_bundle``,
    every fiber A_v is the diagonal algebra D(L_v) of its lines L_v and
    every transition T_e maps line t over u to a multiple of line
    ``images[e][t]`` over v; eta, read off the lines, then intertwines.
    The flat sections of the algebra bundle follow from the same two facts,
    with no holonomy formed:

    - A_v = D(L_v) is spanned by the projections pi_{v,t} onto line t along
      the other lines of L_v.
    - T_e pi_{u,t} T_e^-1 = pi_{v,images[e][t]}: T_e carries the basis L_u
      to the basis L_v, permuted by ``images[e]`` and rescaled, and the
      scalars cancel in a projection.
    - So x_v = sum_t f(v, t) pi_{v,t} is flat, T_e x_u T_e^-1 = x_v on every
      edge, exactly when f(u, t) = f(v, images[e][t]): f is a function on
      the points of the cover that is constant along its edges, and the
      flat sections have one dimension per component of the cover.
    """
    result = build_spectral_cover(algebra)
    return RoundtripRecord(cover_report(result.cover), result)


class CoverRoundtripRecord(NamedTuple):
    """Cover -> bundle -> cover comparison, on top of the bundle round trip.

    ``isomorphism`` maps, per vertex, input labels to rebuilt labels. It is
    read off the monomial eta, which with the checked intertwining makes it
    a cover isomorphism matching the scalars up to vertexwise rescaling
    (argued in ``cover_roundtrip``)."""

    roundtrip: RoundtripRecord
    isomorphism: tuple

    def all_ok(self) -> bool:
        return self.roundtrip.all_ok()


def _labels_from_monomial(vertex: int, eta: Matrix) -> tuple:
    """Input label -> rebuilt label: the row of the one nonzero entry of each column."""
    labels = [None] * eta.nrows
    for t, column in enumerate(zip(*eta.ints)):
        support = [r for r, x in enumerate(column) if x != 0]
        if len(support) != 1 or labels[support[0]] is not None:
            raise EtaNotMonomial(vertex)
        labels[support[0]] = t
    return tuple(labels)


def cover_roundtrip(cover: CoverRep, line: LineBundleOnCover) -> CoverRoundtripRecord:
    """Push a line bundle down, rebuild the cover, and match it to the original.

    A ``line`` on another cover raises ``DimensionMismatch``. The match is
    read off eta, with no search over bijections. The pushforward's
    transition T_e sends basis vector t to s_e(t) times basis vector
    sigma_e(t), and its fibers are the diagonal algebra, whose common
    eigenlines are the coordinate lines. So column t' of eta_v is c_v(t')
    times basis vector beta_v(t'): eta_v is monomial, and beta_v maps
    rebuilt labels to input labels. ``bundles._map_lines`` has checked
    eta_v P'_e = T_e eta_u on every edge e = (u, v), column by column (see
    ``build_spectral_cover``), where P'_e carries the rebuilt sigma'_e and
    scalars s'_e. Applied to basis vector t' that identity reads

        s'_e(t') c_v(sigma'_e(t')) e[beta_v(sigma'_e(t'))]
            = c_u(t') s_e(beta_u(t')) e[sigma_e(beta_u(t'))].

    The supports give beta_v . sigma'_e = sigma_e . beta_u, so beta is an
    isomorphism of covers. The coefficients give s_e(beta_u(t')) =
    s'_e(t') c_v(sigma'_e(t')) / c_u(t'): through beta the input scalars
    are the rebuilt ones rescaled by c at each point, so every cycle
    holonomy agrees. The check is O(n d^2). A non-monomial eta is a fault
    in the reconstruction and raises ``EtaNotMonomial`` with its vertex.
    The record holds the inverse of beta, in the direction of
    ``cover_isomorphisms(cover, rebuilt)``. (The canonical line order puts
    label t on basis vector t, which makes beta the identity; the argument
    does not rely on that order.)
    """
    if line.cover != cover:
        raise DimensionMismatch("line bundle lives on a different cover")
    rec = roundtrip_verify(canonical_algebra_map(line))
    iso = tuple(_labels_from_monomial(v, eta) for v, eta in enumerate(rec.result.eta))
    return CoverRoundtripRecord(rec, iso)


# ---------------------------------------------------------------------------
# tree gauge, cover isomorphism, and holonomy comparison; no package code
# calls the last two, which tests use as oracles and the benchmark traces


class TreeGauge(NamedTuple):
    """A cover after tree gauge: per-vertex relabelings tau making every tree
    edge carry the identity, so that its monodromy is one permutation per
    cotree edge. ``sigma`` holds the gauged permutation
    tau_v^-1 . sigma_e . tau_u of every edge e = (u, v), in edge order."""

    tree: object
    taus: tuple  # per vertex, a permutation: root labels -> vertex labels
    sigma: tuple

    @property
    def tree_edge_indices(self) -> tuple:
        return tuple(sorted(self.tree.tree_edges))

    @property
    def generators(self) -> tuple:
        """(edge index, gauged permutation) per cotree edge."""
        return tuple((e, self.sigma[e]) for e in self.tree.cotree_edges)


def _invert_perm(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _compose(p, q):
    """Permutation acting as p after q."""
    return tuple(p[x] for x in q)


def tree_gauge(cover: CoverRep) -> TreeGauge:
    """Relabel all fibers through a spanning tree so tree edges are identities."""
    tree = cover.base.spanning_tree()

    def step(e, forward, tau):
        sigma = cover.sigma[e]
        return _compose(sigma if forward else _invert_perm(sigma), tau)

    taus = tree.transport(tuple(range(cover.degree)), step)
    inverses = [_invert_perm(tau) for tau in taus]
    sigma = tuple(
        tuple(inverses[v][s[x]] for x in taus[u])
        for s, (u, v) in zip(cover.sigma, cover.base.edges)
    )
    return TreeGauge(tree, tuple(taus), sigma)


def cover_isomorphisms(first: CoverRep, second: CoverRep):
    """Yield all label bijections over the base carrying one cover to the other.

    After gauging both covers over the same spanning tree, an isomorphism
    is a single root-fiber bijection conjugating each gauged edge
    permutation of the first cover to that of the second; the per-vertex
    maps are recovered through the gauges.
    """
    if first.base != second.base or first.degree != second.degree:
        return
    d = first.degree
    g1 = first.gauge
    g2 = second.gauge
    cotree = g1.tree.cotree_edges
    for beta in permutations(range(d)):
        ok = True
        for e in cotree:
            s1 = g1.sigma[e]
            s2 = g2.sigma[e]
            if any(beta[s1[t]] != s2[beta[t]] for t in range(d)):
                ok = False
                break
        if ok:
            maps = []
            for v in range(first.base.num_vertices):
                tau1_inv = _invert_perm(g1.taus[v])
                maps.append(_compose(g2.taus[v], _compose(beta, tau1_inv)))
            yield tuple(maps)


def line_bundles_gauge_equivalent(a: LineBundleOnCover, b: LineBundleOnCover) -> bool:
    """Whether two scalar systems on one cover differ by a vertexwise rescaling.

    The ratio system is trivialized along a spanning forest of the total
    space; equivalence holds exactly when every remaining edge closes up,
    i.e. all cycle holonomies of the ratio are one.
    """
    if a.cover != b.cover:
        raise DimensionMismatch("line bundles live on different covers")
    cover = a.cover
    d = cover.degree
    one = a.field.one()
    scalars_a, scalars_b = a.scalars.rows, b.scalars.rows
    potential = {}
    adj = {}
    total_edges = []
    for e, (u, v) in enumerate(cover.base.edges):
        for t in range(d):
            ratio = scalars_b[e][t] / scalars_a[e][t]
            src, dst = (u, t), (v, cover.sigma[e][t])
            total_edges.append((src, dst, ratio))
            adj.setdefault(src, []).append((dst, ratio, True))
            adj.setdefault(dst, []).append((src, ratio, False))
    for v in range(cover.base.num_vertices):
        for t in range(d):
            node = (v, t)
            if node in potential:
                continue
            potential[node] = one
            stack = [node]
            while stack:
                cur = stack.pop()
                for nxt, ratio, forward in adj.get(cur, ()):
                    if nxt in potential:
                        continue
                    potential[nxt] = potential[cur] * ratio if forward else potential[cur] / ratio
                    stack.append(nxt)
    for src, dst, ratio in total_edges:
        if potential[dst] != potential[src] * ratio:
            return False
    return True
