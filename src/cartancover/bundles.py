"""Vector and algebra bundles over a finite connected base graph.

The base variety is modeled combinatorially: a multigraph whose oriented
edges carry invertible transition matrices. Traversal against the
orientation uses the inverse, computed once and cached. Global sections
are flat families, pinned down by propagating along a spanning tree and
imposing the holonomy of every remaining edge; this is the graph-model
replacement for H^0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

from .cartan import CartanStatus, CartanVerdict, classify_subspace, conjugate_subspace
from .errors import (
    DimensionMismatch,
    DisconnectedBase,
    IncompatibleEdge,
    NonSplitAtVertex,
    NotCartanAtVertex,
    SingularMatrix,
    SingularTransition,
)
from .linalg import Matrix, MatrixSubspace, Subspace, kernel


@dataclass(frozen=True)
class BaseGraph:
    """A finite multigraph with oriented edges; loops and multi-edges allowed."""

    num_vertices: int
    edges: tuple

    def __init__(self, num_vertices: int, edges):
        if num_vertices < 1:
            raise DimensionMismatch("graph needs at least one vertex")
        edges = tuple((int(u), int(v)) for u, v in edges)
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise DimensionMismatch(f"edge ({u}, {v}) leaves the vertex range")
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edges", edges)

    def spanning_tree(self, tree_edges=None) -> "SpanningTree":
        """BFS spanning tree rooted at vertex 0.

        ``tree_edges`` may pin an explicit choice (as edge indices); it is
        rejected unless it actually spans.
        """
        allowed = set(range(len(self.edges))) if tree_edges is None else set(tree_edges)
        incidence = [[] for _ in range(self.num_vertices)]
        for idx, (u, v) in enumerate(self.edges):
            if idx not in allowed:
                continue
            incidence[u].append((idx, v, True))
            if u != v:
                incidence[v].append((idx, u, False))
        seen = {0}
        order = [(0, None, True)]
        used = set()
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for idx, w, forward in incidence[u]:
                if w in seen:
                    continue
                seen.add(w)
                used.add(idx)
                order.append((w, idx, forward))
                queue.append(w)
        if len(seen) != self.num_vertices:
            raise DisconnectedBase("base graph is not connected")
        if tree_edges is not None and set(tree_edges) != used:
            raise DisconnectedBase("supplied edges do not form a spanning tree")
        cotree = tuple(i for i in range(len(self.edges)) if i not in used)
        return SpanningTree(self, tuple(order), frozenset(used), cotree)


@dataclass(frozen=True)
class SpanningTree:
    graph: BaseGraph
    order: tuple  # (vertex, via_edge, forward), root first with via_edge None
    tree_edges: frozenset
    cotree_edges: tuple

    def path_operators(self, identity, ops, inverses) -> list:
        """Per-vertex composite operator from the root along tree edges."""
        paths = [None] * self.graph.num_vertices
        for vertex, via, forward in self.order:
            if via is None:
                paths[vertex] = identity
                continue
            u, v = self.graph.edges[via]
            if forward:
                paths[v] = ops[via] @ paths[u]
            else:
                paths[u] = inverses[via] @ paths[v]
        return paths


class BundleRep:
    """A rank-d bundle: one invertible d x d transition matrix per oriented edge."""

    def __init__(self, field, graph: BaseGraph, rank: int, transitions):
        transitions = tuple(transitions)
        if len(transitions) != len(graph.edges):
            raise DimensionMismatch("one transition matrix per edge required")
        for t in transitions:
            if t.nrows != rank or t.ncols != rank:
                raise DimensionMismatch("transition matrix has wrong shape")
            if t.field != field:
                raise DimensionMismatch("transition matrix over a different field")
        self.field = field
        self.graph = graph
        self.rank = rank
        self.transitions = transitions
        self._inverses = {}

    def transition_inverse(self, edge_index: int) -> Matrix:
        inv = self._inverses.get(edge_index)
        if inv is None:
            try:
                inv = self.transitions[edge_index].inverse()
            except SingularMatrix:
                raise SingularTransition(edge_index) from None
            self._inverses[edge_index] = inv
        return inv

    def __eq__(self, other):
        return (
            isinstance(other, BundleRep)
            and self.field == other.field
            and self.graph == other.graph
            and self.rank == other.rank
            and self.transitions == other.transitions
        )

    def __repr__(self):
        return f"BundleRep(rank {self.rank} over {self.graph.num_vertices} vertices)"


@dataclass(frozen=True)
class SubalgebraBundle:
    """A subspace of End(E) at each vertex, meant to match under conjugation."""

    parent: BundleRep
    fibers: tuple

    def __init__(self, parent: BundleRep, fibers):
        fibers = tuple(fibers)
        if len(fibers) != parent.graph.num_vertices:
            raise DimensionMismatch("one fiber subspace per vertex required")
        for f in fibers:
            if not isinstance(f, MatrixSubspace) or f.ambient_dim != parent.rank:
                raise DimensionMismatch("fiber subspace has wrong ambient dimension")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "fibers", fibers)


@dataclass(frozen=True)
class FlatSectionSpace:
    """Global flat sections: a dimension plus a basis of per-vertex values."""

    kind: str
    dimension: int
    sections: tuple


def validate_bundle(bundle: BundleRep) -> None:
    """Check base connectivity and invertibility of every transition."""
    bundle.graph.spanning_tree()
    for idx in range(len(bundle.transitions)):
        bundle.transition_inverse(idx)


def validate_cartan_bundle(bundle: BundleRep, algebra: SubalgebraBundle) -> CartanVerdict:
    """Split Cartan fibers everywhere, compatible under every edge conjugation.

    Returns the verdict of the root fiber (vertex 0), the only fiber
    classified when the bundle is valid. That suffices: the base is
    connected and every edge conjugates its source fiber onto its target
    fiber, so each fiber is the root fiber conjugated by the transport
    along a tree path, and a conjugate of a split Cartan subalgebra is
    split Cartan. When some edge is incompatible, fibers 1..n-1 are
    classified in order before the edge is reported, so the first bad
    vertex still takes precedence over the first bad edge.
    """
    validate_bundle(bundle)
    d = bundle.rank
    verdict = _classify_fiber(algebra, 0, d)
    for idx, (u, v) in enumerate(bundle.graph.edges):
        moved = conjugate_subspace(algebra.fibers[u], bundle.transitions[idx])
        if moved != algebra.fibers[v]:
            for w in range(1, len(algebra.fibers)):
                _classify_fiber(algebra, w, d)
            raise IncompatibleEdge(idx)
    return verdict


def _classify_fiber(algebra: SubalgebraBundle, v: int, d: int) -> CartanVerdict:
    verdict = classify_subspace(algebra.fibers[v], d)
    if verdict.status is CartanStatus.NONSPLIT:
        raise NonSplitAtVertex(v, verdict.witness_poly)
    if verdict.status is CartanStatus.NOT_CARTAN:
        raise NotCartanAtVertex(v, str(verdict))
    return verdict


def conjugation_operator(t: Matrix) -> Matrix:
    """The map m -> t m t^-1 as a d^2 x d^2 matrix on row-major coordinates."""
    return hom_operator(t, t)


def hom_operator(t_target: Matrix, t_source: Matrix) -> Matrix:
    """The map m -> t_target m t_source^-1 on row-major coordinates."""
    field = t_target.field
    d = t_target.nrows
    ti = t_source.inverse()
    zero, one = field.zero(), field.one()
    cols = []
    for i in range(d):
        for j in range(d):
            e = Matrix(
                field,
                [[one if (r == i and c == j) else zero for c in range(d)] for r in range(d)],
            )
            cols.append((t_target @ e @ ti).flatten())
    return Matrix.from_columns(field, cols)


def end_bundle(bundle: BundleRep) -> BundleRep:
    """The endomorphism bundle, rank d^2, with conjugation as edge action."""
    ops = [conjugation_operator(t) for t in bundle.transitions]
    return BundleRep(bundle.field, bundle.graph, bundle.rank**2, ops)


def _stack_rows(field, blocks, width: int) -> Matrix:
    rows = [row for b in blocks for row in b.rows]
    return Matrix(field, rows, ncols=width)


def flat_sections(obj, tree_edges=None) -> FlatSectionSpace:
    """Flat global sections of a bundle, or of an algebra subbundle of End(E).

    Vector bundles use the edge action s -> T s; algebra subbundles use
    conjugation, solved in coordinates on the root fiber (the holonomy of
    a compatible subbundle preserves it). The result does not depend on
    the spanning tree; ``tree_edges`` exists so tests can witness that.
    """
    if isinstance(obj, SubalgebraBundle):
        return _flat_algebra_sections(obj, tree_edges)
    if isinstance(obj, BundleRep):
        return _flat_vector_sections(obj, tree_edges)
    raise TypeError("flat_sections expects a BundleRep or SubalgebraBundle")


def flat_sections_dim(obj, tree_edges=None) -> int:
    return flat_sections(obj, tree_edges).dimension


def _flat_vector_sections(bundle: BundleRep, tree_edges) -> FlatSectionSpace:
    field = bundle.field
    tree = bundle.graph.spanning_tree(tree_edges)
    inverses = {e: bundle.transition_inverse(e) for e in range(len(bundle.transitions))}
    paths = tree.path_operators(
        Matrix.identity(field, bundle.rank), bundle.transitions, inverses
    )
    path_inverses = [p.inverse() for p in paths]
    ident = Matrix.identity(field, bundle.rank)
    blocks = []
    for e in tree.cotree_edges:
        u, v = bundle.graph.edges[e]
        holonomy = path_inverses[v] @ bundle.transitions[e] @ paths[u]
        blocks.append(holonomy - ident)
    if blocks:
        space = kernel(_stack_rows(field, blocks, bundle.rank))
    else:
        space = Subspace.full(field, bundle.rank)
    sections = tuple(
        tuple(p.apply(x) for p in paths) for x in space.basis
    )
    return FlatSectionSpace("vector", space.dim, sections)


def _flat_algebra_sections(algebra: SubalgebraBundle, tree_edges) -> FlatSectionSpace:
    bundle = algebra.parent
    field = bundle.field
    d = bundle.rank
    tree = bundle.graph.spanning_tree(tree_edges)
    inverses = {e: bundle.transition_inverse(e) for e in range(len(bundle.transitions))}
    paths = tree.path_operators(Matrix.identity(field, d), bundle.transitions, inverses)
    path_inverses = [p.inverse() for p in paths]
    root = algebra.fibers[0]
    r = root.dim
    basis = root.basis_matrices()
    ident = Matrix.identity(field, r)
    blocks = []
    for e in tree.cotree_edges:
        u, v = bundle.graph.edges[e]
        h = path_inverses[v] @ bundle.transitions[e] @ paths[u]
        hi = h.inverse()
        cols = []
        for b in basis:
            moved = h @ b @ hi
            try:
                cols.append(root.coordinates_of(moved))
            except ValueError:
                raise IncompatibleEdge(
                    e, "holonomy does not preserve the root fiber subspace"
                ) from None
        blocks.append(Matrix.from_columns(field, cols) - ident)
    if blocks:
        space = kernel(_stack_rows(field, blocks, r))
    else:
        space = Subspace.full(field, r)
    sections = []
    for coeffs in space.basis:
        x = Matrix.zeros(field, d, d)
        for c, b in zip(coeffs, basis):
            if c != 0:
                x = x + b.scale(c)
        sections.append(tuple(p @ x @ pi for p, pi in zip(paths, path_inverses)))
    return FlatSectionSpace("endomorphism", space.dim, tuple(sections))


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


def flat_hom_space(source: BundleRep, target: BundleRep, tree_edges=None):
    """Basis of flat homomorphisms source -> target, as root-fiber matrices
    together with the per-vertex transport operators."""
    if source.graph != target.graph or source.rank != target.rank:
        raise DimensionMismatch("bundles must share base and rank")
    field = source.field
    d = source.rank
    tree = source.graph.spanning_tree(tree_edges)
    inv_s = {e: source.transition_inverse(e) for e in range(len(source.transitions))}
    inv_t = {e: target.transition_inverse(e) for e in range(len(target.transitions))}
    paths_s = tree.path_operators(Matrix.identity(field, d), source.transitions, inv_s)
    paths_t = tree.path_operators(Matrix.identity(field, d), target.transitions, inv_t)
    pinv_s = [p.inverse() for p in paths_s]
    pinv_t = [p.inverse() for p in paths_t]
    ident = Matrix.identity(field, d * d)
    blocks = []
    for e in tree.cotree_edges:
        u, v = source.graph.edges[e]
        h_t = pinv_t[v] @ target.transitions[e] @ paths_t[u]
        h_s = pinv_s[v] @ source.transitions[e] @ paths_s[u]
        blocks.append(hom_operator(h_t, h_s) - ident)
    if blocks:
        space = kernel(_stack_rows(field, blocks, d * d))
    else:
        space = Subspace.full(field, d * d)
    basis = tuple(Matrix.unflatten(field, vec, d, d) for vec in space.basis)
    return basis, paths_t, pinv_s


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
        if m0.is_invertible():
            return BundleIsoResult(transport(m0), dim, True)
    field = source.field
    coeff_range = [field.coerce(c) for c in range(-coefficient_bound, coefficient_bound + 1)]
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
        if m0.is_invertible():
            return BundleIsoResult(transport(m0), dim, True)
    return BundleIsoResult(None, dim, dim == 0)
