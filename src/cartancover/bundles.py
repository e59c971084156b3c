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
from typing import NamedTuple

from .cartan import (
    CartanStatus,
    MatrixSubspace,
    simultaneous_eigenlines,
    sort_lines,
    spans_diagonal_algebra,
)
from .errors import (
    CartanCoverError,
    DimensionMismatch,
    DisconnectedBase,
    IncompatibleEdge,
    NonSplitAtVertex,
    NotCartanAtVertex,
    NotSplitCartan,
    SingularMatrix,
    SingularTransition,
)
from .linalg import Matrix, Subspace, kernel, ratio_matrix


class BaseGraph:
    """A finite multigraph with oriented edges; loops and multi-edges allowed."""

    __slots__ = ("num_vertices", "edges")
    num_vertices: int
    edges: tuple

    def __init__(self, num_vertices: int, edges):
        if num_vertices < 1:
            raise DimensionMismatch("graph needs at least one vertex")
        edges = tuple((int(u), int(v)) for u, v in edges)
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise DimensionMismatch(f"edge ({u}, {v}) leaves the vertex range")
        self.num_vertices = num_vertices
        self.edges = edges

    def __eq__(self, other):
        if type(other) is not BaseGraph:
            return NotImplemented
        return self.num_vertices == other.num_vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.num_vertices, self.edges))

    def __repr__(self):
        return f"BaseGraph(num_vertices={self.num_vertices!r}, edges={self.edges!r})"

    def spanning_tree(self) -> "SpanningTree":
        """BFS spanning tree rooted at vertex 0, taking edges in index order."""
        incidence = [[] for _ in range(self.num_vertices)]
        for idx, (u, v) in enumerate(self.edges):
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
        cotree = tuple(i for i in range(len(self.edges)) if i not in used)
        return SpanningTree(self, tuple(order), frozenset(used), cotree)


class SpanningTree(NamedTuple):
    graph: BaseGraph
    order: tuple  # (vertex, via_edge, forward), root first with via_edge None
    tree_edges: frozenset
    cotree_edges: tuple

    def transport(self, root_value, step) -> list:
        """The value at each vertex, moved from ``root_value`` at the root
        along the tree: ``step(e, forward, x)`` moves x across tree edge e,
        through T_e or sigma_e when ``forward``, else through the inverse."""
        values = [None] * self.graph.num_vertices
        values[0] = root_value
        for vertex, via, forward in self.order[1:]:
            u, v = self.graph.edges[via]
            values[vertex] = step(via, forward, values[u if forward else v])
        return values


class BundleRep:
    """A rank-d bundle: one invertible d x d transition matrix per oriented edge."""

    def __init__(self, field, graph: BaseGraph, rank: int, transitions):
        if rank < 1:
            raise DimensionMismatch("bundle rank must be positive")
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


class SubalgebraBundle:
    """A subspace of End(E) at each vertex, meant to match under conjugation."""

    __slots__ = ("parent", "fibers")
    parent: BundleRep
    fibers: tuple

    def __init__(self, parent: BundleRep, fibers):
        fibers = tuple(fibers)
        if len(fibers) != parent.graph.num_vertices:
            raise DimensionMismatch("one fiber subspace per vertex required")
        for f in fibers:
            if not isinstance(f, MatrixSubspace) or f.ambient_dim != parent.rank:
                raise DimensionMismatch("fiber subspace has wrong ambient dimension")
        self.parent = parent
        self.fibers = fibers

    def __eq__(self, other):
        if type(other) is not SubalgebraBundle:
            return NotImplemented
        return self.parent == other.parent and self.fibers == other.fibers

    def __hash__(self):
        # a BundleRep does not hash; equal algebras have equal fibers
        return hash(self.fibers)

    def __repr__(self):
        return f"SubalgebraBundle(parent={self.parent!r}, fibers={self.fibers!r})"


class FlatSectionSpace(NamedTuple):
    """Global flat sections: a dimension plus a basis of per-vertex values."""

    kind: str
    dimension: int
    sections: tuple


def validate_bundle(bundle: BundleRep) -> SpanningTree:
    """Check base connectivity, then invert every transition in edge order.

    Returns the BFS spanning tree that witnesses connectivity, or raises
    ``DisconnectedBase``, else ``SingularTransition`` at the first singular
    edge. This is the precedence pass of a failed validation: a singular
    transition (exit 2) is reported before any Cartan error (exit 1), so
    ``validate_cartan_bundle`` runs it before it lets a failure out. On
    success that validation inverts only what its transport needs, and
    its certificate proves the rest invertible.
    """
    tree = bundle.graph.spanning_tree()
    for idx in range(len(bundle.transitions)):
        bundle.transition_inverse(idx)
    return tree


class CartanLines(NamedTuple):
    """A validated split Cartan bundle, read through its common eigenlines.

    ``lines[v]`` holds the d common eigenlines of the fiber at vertex v,
    as canonical integer lines in the order of ``cartan.sort_lines``.
    Transition e carries line t over its source to entry (e, t) of the
    matrix ``factors`` times line ``images[e][t]`` over its target.
    """

    lines: tuple
    images: tuple
    factors: tuple


def validate_cartan_bundle(algebra: SubalgebraBundle) -> CartanLines:
    """Split Cartan fibers everywhere, compatible under every edge conjugation
    of the bundle ``algebra.parent``.

    ``simultaneous_eigenlines`` splits the root fiber A_0 into its d common
    eigenlines L_0, and the lines are transported along the spanning tree to
    lines L_v at every vertex: through T_e on a tree edge crossed along its
    orientation, through the cached inverse, the only one computed, on an
    edge crossed against it. Then two checks, neither of which inverts a
    matrix or builds a fiber's canonical form:

    - every A_v is the diagonal algebra D(L_v) of the lines L_v: its given
      matrices are diagonal in L_v and their eigenvalue vectors span k^d,
      a rank d (``cartan.spans_diagonal_algebra``, whose docstring shows
      that this is exactly A_v = D(L_v) and proves L_v independent; at the
      root the split ran this very check, as its certificate);
    - each transition T_e maps the d lines over its source onto d distinct
      lines over its target (``_map_lines``).

    They hold exactly when the bundle is a compatible split Cartan bundle:
    T_e D(L_u) T_e^-1 = D(T_e L_u), where the common eigenlines of D(L) are
    exactly the lines of L, so T_e is compatible exactly when it permutes
    the lines. Conversely, on a compatible split Cartan bundle the tree
    transport P_v conjugates A_0 onto A_v and so carries the eigenlines of
    A_0 to those of A_v, and every edge, conjugating D(L_u) onto D(L_v),
    permutes the lines. The checks also certify every transition
    invertible, with no inverse formed: each carries the basis L_u onto
    nonzero multiples of the basis L_v.

    Whether A_v is D(L_v) depends on the span of A_v and on L_v alone, so
    it is decided once per distinct pair of given matrices and lines, by
    value: a vertex whose pair is already decided reuses that verdict, and
    the root pair starts as decided, by the check that certified the
    split's lines. A fiber that fails is split on its own, which depends
    on the fiber alone, so that split is reused too. The first vertex of
    each pair is still checked in vertex order, so the failing vertex and
    its error are those of a check at every vertex. On a direct image
    f_*L every pair is the root's: each fiber is the diagonal algebra of
    the label basis, whose coordinate lines the monomial transitions
    permute, so no fiber is checked again.

    Errors are those of the fiber-by-fiber test, which first inverts every
    transition (``validate_bundle``), then classifies the fibers in vertex
    order and then checks the edges in order. Any error on the way first
    runs ``validate_bundle``, so a singular transition is reported, at the
    first singular edge, before anything else. A step of the transport or
    an edge of ``_map_lines`` that sends a line to zero, or two lines onto
    one, has a singular transition on the tree path behind it, since the
    lines over the root are independent, so that pass raises. Otherwise
    every transition is invertible and the lines are independent. A fiber
    diagonal in its transported lines is split Cartan with these as its
    own eigenlines; any other fiber, in vertex order, is split on its own,
    which raises its vertex's error unless it is split Cartan. Then every
    fiber carries its own eigenlines, and the first edge that does not
    permute them is the first incompatible edge. The returned lines, with
    the label bijection and the scalar of every edge, are what the
    spectral cover is built from.

    Lines are moved, compared and returned as canonical integer lines
    (``Matrix.map_line``), which are hashable, and the edge factors as a
    matrix in canonical integer form; no field scalar is built.
    """
    bundle = algebra.parent
    tree = bundle.graph.spanning_tree()

    def step(e, forward, lines):
        op = bundle.transitions[e] if forward else bundle.transition_inverse(e)
        images = [op.map_line(x)[2] for x in lines]
        if None in images or len(set(images)) < len(lines):
            # a line sent to zero, or two onto one: a transition on the
            # tree path to here is singular, which validate_bundle names
            raise SingularTransition(e)
        return sort_lines(images)

    try:
        transported = tree.transport(_fiber_lines(algebra, 0), step)
        # per distinct (lines, given matrices): None when the fiber is
        # diagonal in the lines, which the vertex then keeps, else the
        # fiber's own eigenlines; the root's entry is the verdict of the
        # spans_diagonal_algebra call that certified the split's lines
        verdicts = {(transported[0], algebra.fibers[0].generators): None}
        lines = transported[:1]
        for v, ls in enumerate(transported[1:], start=1):
            fiber = algebra.fibers[v]
            key = (ls, fiber.generators)
            own = verdicts.get(key, False)
            if own is False:
                own = None if spans_diagonal_algebra(fiber, ls) else _fiber_lines(algebra, v)
                verdicts[key] = own
            lines.append(own or ls)
        return CartanLines(tuple(lines), *_map_lines(bundle, lines))
    except CartanCoverError:
        validate_bundle(bundle)
        raise


def _fiber_lines(algebra: SubalgebraBundle, v: int) -> tuple:
    """The common eigenlines of the fiber at v, as canonical integer lines;
    raises the vertex's error when the fiber is not split Cartan."""
    try:
        return simultaneous_eigenlines(algebra.fibers[v])
    except NotSplitCartan as exc:
        verdict = exc.verdict
    if verdict.status is CartanStatus.NONSPLIT:
        raise NonSplitAtVertex(v, verdict.witness_poly)
    raise NotCartanAtVertex(v, str(verdict))


def _map_lines(bundle: BundleRep, lines) -> tuple:
    """Per edge e = (u, v) and canonical integer line t over u: the index
    of the line over v that T_e carries line t onto, and the scale of the
    image over that normalized line, entry (e, t) of the returned matrix.
    Raises ``IncompatibleEdge`` at the first edge whose transition does not
    carry the lines over u onto the lines over v, and ``SingularTransition``
    at one that carries two of them onto one, which independent lines over
    u show singular."""
    index = [{line: t for t, line in enumerate(ls)} for ls in lines]
    images, factors = [], []
    for e, (u, v) in enumerate(bundle.graph.edges):
        targets, scales = [], []
        for line in lines[u]:
            num, den, image = bundle.transitions[e].map_line(line)
            target = index[v].get(image)
            if target is None:
                raise IncompatibleEdge(e)
            targets.append(target)
            scales.append((num, den))
        if len(set(targets)) < len(targets):
            raise SingularTransition(e)
        images.append(tuple(targets))
        factors.append(scales)
    return tuple(images), ratio_matrix(bundle.field, factors, bundle.rank)


def tree_paths(bundle: BundleRep, tree: SpanningTree) -> list:
    """Per vertex v, the composite P_v of the transitions along the tree
    path from the root, with its inverse: through an edge T from u to v,
    P_v = T P_u and P_v^-1 = P_u^-1 T^-1. T^-1 is the cached transition
    inverse, so no composite is ever inverted."""

    def step(e, forward, path):
        t, ti = bundle.transitions[e], bundle.transition_inverse(e)
        if not forward:
            t, ti = ti, t
        return t @ path[0], path[1] @ ti

    ident = Matrix.identity(bundle.field, bundle.rank)
    return tree.transport((ident, ident), step)


def flat_sections(obj) -> FlatSectionSpace:
    """Flat global sections of a bundle, or of an algebra subbundle of End(E).

    A flat section is fixed by its root value x, and exists exactly when x
    is fixed by the holonomy h = P_v^-1 T_e P_u of every cotree edge
    e = (u, v). Vector bundles use the edge action s -> T s; algebra
    subbundles use conjugation x -> h x h^-1, with
    h^-1 = P_u^-1 T_e^-1 P_v, solved in coordinates on the root fiber (the
    holonomy of a compatible subbundle preserves it). Every inverse is a
    cached transition inverse. The result does not depend on the spanning
    tree.
    """
    if isinstance(obj, SubalgebraBundle):
        bundle, root = obj.parent, obj.fibers[0]
    elif isinstance(obj, BundleRep):
        bundle, root = obj, None
    else:
        raise TypeError("flat_sections expects a BundleRep or SubalgebraBundle")
    field = bundle.field
    tree = validate_bundle(bundle)
    paths = tree_paths(bundle, tree)
    basis = None if root is None else root.basis_matrices()
    dim = bundle.rank if root is None else root.dim
    ident = Matrix.identity(field, dim)
    blocks = []
    for e in tree.cotree_edges:
        u, v = bundle.graph.edges[e]
        h = paths[v][1] @ bundle.transitions[e] @ paths[u][0]
        if root is None:
            blocks.append(h - ident)
            continue
        hi = paths[u][1] @ bundle.transition_inverse(e) @ paths[v][0]
        cols = []
        for b in basis:
            try:
                cols.append(root.coordinates_of(h @ b @ hi))
            except ValueError:
                raise IncompatibleEdge(
                    e, "holonomy does not preserve the root fiber subspace"
                ) from None
        blocks.append(Matrix.from_columns(field, cols) - ident)
    if blocks:
        space = kernel(Matrix(field, [row for b in blocks for row in b.rows], dim))
    else:
        space = Subspace.full(field, dim)
    if root is None:
        sections = tuple(tuple(p.apply(x) for p, _pi in paths) for x in space.basis)
        return FlatSectionSpace("vector", space.dim, sections)
    d = bundle.rank
    sections = []
    for coeffs in space.basis:
        x = Matrix.zeros(field, d, d)
        for c, b in zip(coeffs, basis):
            if c != 0:
                x = x + b.scale(c)
        sections.append(tuple(p @ x @ pi for p, pi in paths))
    return FlatSectionSpace("endomorphism", space.dim, tuple(sections))
