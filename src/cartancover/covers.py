"""Covers of the base graph and the two constructions relating them to bundles.

A degree-d cover is a fiber of d labels over each vertex together with a
bijection of labels along every oriented edge. Pushing a line bundle on
the cover down to the base produces a rank-d bundle with monomial
transitions and a distinguished fiberwise-diagonal algebra subbundle.
In the other direction, a split Cartan algebra subbundle of End(E)
yields, through its common eigenlines, a cover, a line bundle on it, and
an identification of E with the pushforward. Both directions are
implemented constructively and every claimed identity is machine-checked.

Over a connected base, "split Cartan" is a fact about one fiber: a
subbundle that every transition carries onto the next fiber is fixed by
its root fiber and parallel transport. So the Cartan test and the
eigenline split run once, at the root, and the eigenlines elsewhere are
the root ones transported along a spanning tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .bundles import BaseGraph, BundleRep, SubalgebraBundle, flat_sections, validate_cartan_bundle
from .cartan import canonical_lines, conjugate_subspace, split_eigenlines
from .errors import DimensionMismatch, DisconnectedBase, LineNotMapped, ParseError
from .linalg import Matrix, MatrixSubspace


def _check_permutation(sigma, d: int):
    if len(sigma) != d or sorted(sigma) != list(range(d)):
        raise ParseError(f"{sigma} is not a permutation of 0..{d - 1}")


@dataclass(frozen=True)
class CoverRep:
    """A degree-d cover: labels 0..d-1 over each vertex, a bijection per edge."""

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
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "sigma", sigma)

    def total_components(self):
        """Connected components of the total space, via union-find on (vertex, label)."""
        n, d = self.base.num_vertices, self.degree
        parent = list(range(n * d))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[ry] = rx

        for e, (u, v) in enumerate(self.base.edges):
            for t in range(d):
                union(u * d + t, v * d + self.sigma[e][t])
        comps = {}
        for v in range(n):
            for t in range(d):
                comps.setdefault(find(v * d + t), []).append((v, t))
        return sorted(comps.values(), key=lambda pts: pts[0])


@dataclass(frozen=True)
class LineBundleOnCover:
    """Nonzero scalar per cover edge: label t over edge e carries s[e][t]."""

    cover: CoverRep
    field: object
    scalars: tuple  # per edge, per source label

    def __init__(self, cover: CoverRep, field, scalars):
        scalars = tuple(tuple(field.coerce(x) for x in s) for s in scalars)
        if len(scalars) != len(cover.base.edges):
            raise DimensionMismatch("one scalar list per edge required")
        for s in scalars:
            if len(s) != cover.degree:
                raise DimensionMismatch("one scalar per fiber label required")
            if any(x == 0 for x in s):
                raise DimensionMismatch("line bundle scalars must be nonzero")
        object.__setattr__(self, "cover", cover)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "scalars", scalars)


def trivial_line_bundle(cover: CoverRep, field) -> LineBundleOnCover:
    """The structure sheaf of the cover: every scalar is one."""
    one = field.one()
    return LineBundleOnCover(
        cover, field, tuple(tuple(one for _ in range(cover.degree)) for _ in cover.base.edges)
    )


@dataclass(frozen=True)
class CoverReport:
    component_count: int
    degree_profile: tuple
    split: bool


def cover_report(cover: CoverRep) -> CoverReport:
    """Component count and degrees; split means d disjoint copies of the base.

    A component missing a vertex shows a disconnected base, which is refused.
    """
    comps = cover.total_components()
    n = cover.base.num_vertices
    degrees = []
    for comp in comps:
        if len({v for v, _t in comp}) != n:
            raise DisconnectedBase("base graph is not connected")
        degrees.append(len(comp) // n)
    degrees.sort(reverse=True)
    return CoverReport(len(comps), tuple(degrees), all(k == 1 for k in degrees))


def direct_image_line_bundle(cover: CoverRep, line: LineBundleOnCover) -> BundleRep:
    """Pushforward of a line bundle: rank-d bundle with monomial transitions.

    Basis vectors of the fiber are indexed by the cover labels; the edge
    matrix sends basis vector t to s[e][t] times basis vector sigma[e][t],
    so each transition has exactly one nonzero entry per row and column.
    """
    if line.cover != cover:
        raise DimensionMismatch("line bundle lives on a different cover")
    field = line.field
    d = cover.degree
    zero = field.zero()
    transitions = []
    for e in range(len(cover.base.edges)):
        rows = [[zero] * d for _ in range(d)]
        for t in range(d):
            rows[cover.sigma[e][t]][t] = line.scalars[e][t]
        transitions.append(Matrix(field, rows))
    return BundleRep(field, cover.base, d, transitions)


def canonical_algebra_map(cover: CoverRep, line: LineBundleOnCover) -> SubalgebraBundle:
    """The fiberwise-diagonal algebra inside End of the pushforward.

    Coordinate projections in the cover-label basis span the space of all
    diagonal matrices at each vertex; monomial transitions conjugate
    diagonals to diagonals, so the family is edge-compatible by design.
    """
    bundle = direct_image_line_bundle(cover, line)
    diag = MatrixSubspace.diagonal_algebra(line.field, cover.degree)
    return SubalgebraBundle(bundle, tuple(diag for _ in range(cover.base.num_vertices)))


@dataclass(frozen=True)
class SpectralCoverResult:
    cover: CoverRep
    line_bundle: LineBundleOnCover
    eta: tuple  # per vertex, the invertible matrix with eigenline columns


def build_spectral_cover(bundle: BundleRep, algebra: SubalgebraBundle) -> SpectralCoverResult:
    """Rebuild the cover and line bundle from a split Cartan algebra subbundle.

    The input is validated first (``validate_cartan_bundle``). Then only
    the root fiber is split into its d common eigenlines; every other
    vertex gets the root lines transported along the spanning tree. That
    is sound: every tree edge is compatible, so the path operator P_v
    conjugates the root fiber A_0 onto A_v and carries the common
    eigenlines of A_0 to common eigenlines of A_v, and a split Cartan
    subalgebra has exactly d of them. The cover's labels at each vertex
    are its lines in canonical order. Each transition maps the line t over
    the source to a unique line over the target, which fixes the label
    bijection, and the scaling factor between the normalized line vectors
    is the line-bundle scalar. The matrix of eigenline columns identifies
    the pushforward with the original bundle; that identity is
    machine-checked on every edge before returning.
    """
    verdict = validate_cartan_bundle(bundle, algebra)
    d = bundle.rank
    field = bundle.field
    lines_per_vertex = [None] * bundle.graph.num_vertices
    lines_per_vertex[0] = split_eigenlines(algebra.fibers[0], verdict).lines
    for vertex, via, forward in bundle.graph.spanning_tree().order[1:]:
        u, v = bundle.graph.edges[via]
        op = bundle.transitions[via] if forward else bundle.transition_inverse(via)
        moved = [op.apply(line) for line in lines_per_vertex[u if forward else v]]
        lines_per_vertex[vertex] = canonical_lines(field, moved)
    index_per_vertex = [{line: t for t, line in enumerate(lines)} for lines in lines_per_vertex]

    sigma = []
    scalars = []
    for e, (u, v) in enumerate(bundle.graph.edges):
        t_e = bundle.transitions[e]
        images = []
        factors = []
        for line in lines_per_vertex[u]:
            w = t_e.apply(line)
            lead = next((x for x in w if x != 0), None)
            if lead is None:
                raise LineNotMapped(f"transition {e} kills a line")
            normalized = tuple(x / lead for x in w)
            target = index_per_vertex[v].get(normalized)
            if target is None:
                raise LineNotMapped(f"transition {e} does not permute the eigenlines")
            images.append(target)
            factors.append(lead)
        sigma.append(tuple(images))
        scalars.append(tuple(factors))

    cover = CoverRep(bundle.graph, d, tuple(sigma))
    line_bundle = LineBundleOnCover(cover, field, tuple(scalars))
    eta = tuple(Matrix.from_columns(field, lines) for lines in lines_per_vertex)

    pushed = direct_image_line_bundle(cover, line_bundle)
    for e, (u, v) in enumerate(bundle.graph.edges):
        if eta[v] @ pushed.transitions[e] != bundle.transitions[e] @ eta[u]:
            raise LineNotMapped(f"reconstruction fails to intertwine on edge {e}")
    return SpectralCoverResult(cover, line_bundle, eta)


@dataclass(frozen=True)
class RoundtripRecord:
    """Round trip bundle -> cover -> bundle, with the three verified identities."""

    eta_intertwines: bool
    algebra_matches: bool
    components_match_sections: bool
    component_count: int
    flat_section_dim: int
    result: SpectralCoverResult
    witness: str | None = None

    def all_ok(self) -> bool:
        return self.eta_intertwines and self.algebra_matches and self.components_match_sections


def roundtrip_verify(bundle: BundleRep, algebra: SubalgebraBundle) -> RoundtripRecord:
    """Check that rebuilding the cover and pushing forward again returns the input.

    Verifies, with witnesses on failure: the eigenline identification
    intertwines all transitions (``build_spectral_cover`` checks this on
    every edge and raises ``LineNotMapped`` otherwise, so a returned
    result always intertwines); conjugating the rebuilt diagonal algebra
    through it recovers the original algebra fiber by fiber; and the
    component count of the cover equals the flat-section dimension of the
    algebra subbundle.
    """
    result = build_spectral_cover(bundle, algebra)
    rebuilt = MatrixSubspace.diagonal_algebra(bundle.field, bundle.rank)

    witness = None
    algebra_ok = True
    for v in range(bundle.graph.num_vertices):
        moved = conjugate_subspace(rebuilt, result.eta[v])
        if moved != algebra.fibers[v]:
            algebra_ok = False
            witness = f"vertex {v}"
            break

    components = cover_report(result.cover).component_count
    sections = flat_sections(algebra).dimension
    return RoundtripRecord(
        True,
        algebra_ok,
        components == sections,
        components,
        sections,
        result,
        witness,
    )


# ---------------------------------------------------------------------------
# tree gauge, cover isomorphism, and holonomy comparison


@dataclass(frozen=True)
class TreeGauge:
    """Per-vertex relabelings making every tree edge carry the identity."""

    tree: object
    taus: tuple  # per vertex, a permutation: root labels -> vertex labels
    gauged: CoverRep


def _invert_perm(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _compose(p, q):
    """Permutation acting as p after q."""
    return tuple(p[q[i]] for i in range(len(q)))


def tree_gauge(cover: CoverRep, tree_edges=None) -> TreeGauge:
    """Relabel all fibers through a spanning tree so tree edges are identities."""
    d = cover.degree
    tree = cover.base.spanning_tree(tree_edges)
    taus = [None] * cover.base.num_vertices
    for vertex, via, forward in tree.order:
        if via is None:
            taus[vertex] = tuple(range(d))
            continue
        u, v = cover.base.edges[via]
        if forward:
            taus[v] = _compose(cover.sigma[via], taus[u])
        else:
            taus[u] = _compose(_invert_perm(cover.sigma[via]), taus[v])
    new_sigma = []
    for e, (u, v) in enumerate(cover.base.edges):
        new_sigma.append(_compose(_invert_perm(taus[v]), _compose(cover.sigma[e], taus[u])))
    gauged = CoverRep(cover.base, d, tuple(new_sigma))
    return TreeGauge(tree, tuple(taus), gauged)


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
    g1 = tree_gauge(first)
    g2 = tree_gauge(second)
    cotree = g1.tree.cotree_edges
    for beta in permutations(range(d)):
        ok = True
        for e in cotree:
            s1 = g1.gauged.sigma[e]
            s2 = g2.gauged.sigma[e]
            if any(beta[s1[t]] != s2[beta[t]] for t in range(d)):
                ok = False
                break
        if ok:
            maps = []
            for v in range(first.base.num_vertices):
                tau1_inv = _invert_perm(g1.taus[v])
                maps.append(_compose(g2.taus[v], _compose(beta, tau1_inv)))
            yield tuple(maps)


def pullback_scalars(
    iso_maps, source_cover: CoverRep, target_line: LineBundleOnCover
) -> LineBundleOnCover:
    """Scalars on the source cover induced by an isomorphism onto the target."""
    scalars = []
    for e, (u, _v) in enumerate(source_cover.base.edges):
        beta_u = iso_maps[u]
        scalars.append(
            tuple(target_line.scalars[e][beta_u[t]] for t in range(source_cover.degree))
        )
    return LineBundleOnCover(source_cover, target_line.field, tuple(scalars))


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
    field = a.field
    one = field.one()
    potential = {}
    adj = {}
    total_edges = []
    for e, (u, v) in enumerate(cover.base.edges):
        for t in range(d):
            ratio = b.scalars[e][t] / a.scalars[e][t]
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


@dataclass(frozen=True)
class CoverRoundtripRecord:
    """Cover -> bundle -> cover comparison, on top of the bundle round trip."""

    roundtrip: RoundtripRecord
    cover_isomorphic: bool
    holonomy_matches: bool

    def all_ok(self) -> bool:
        return self.roundtrip.all_ok() and self.cover_isomorphic and self.holonomy_matches


def cover_roundtrip(cover: CoverRep, line: LineBundleOnCover) -> CoverRoundtripRecord:
    """Push a line bundle down, rebuild the cover, and match it to the original.

    The rebuilt cover must be isomorphic over the base to the input, via a
    bijection commuting with all edge permutations; the rebuilt scalars,
    pulled back through some such isomorphism, must agree with the input
    up to vertexwise rescaling (cycle holonomy is the invariant, the raw
    scalars are gauge).
    """
    bundle = direct_image_line_bundle(cover, line)
    algebra = canonical_algebra_map(cover, line)
    rec = roundtrip_verify(bundle, algebra)
    iso_found = False
    holonomy_ok = False
    for iso in cover_isomorphisms(cover, rec.result.cover):
        iso_found = True
        pulled = pullback_scalars(iso, cover, rec.result.line_bundle)
        if line_bundles_gauge_equivalent(line, pulled):
            holonomy_ok = True
            break
    return CoverRoundtripRecord(rec, iso_found, holonomy_ok)
